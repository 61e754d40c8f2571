//! Runs every experiment in DESIGN.md's per-experiment index and prints the
//! full paper-vs-measured report (the source of EXPERIMENTS.md's tables).

use dphls_bench::experiments::{
    ablation, explore, fig3, fig4, fig5, fig6, productivity, sec75, table2, tiling,
};
use dphls_bench::report;

fn main() {
    // `--json <path>` writes the machine-readable report instead.
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--json") {
        let path = args
            .get(i + 1)
            .map(String::as_str)
            .unwrap_or("experiments.json");
        let full = report::build();
        std::fs::write(path, report::to_json(&full)).expect("write JSON report");
        println!("wrote {path}");
        return;
    }
    println!("==== Table 2 ====");
    let t2 = table2::run();
    println!("{}", table2::render(&t2));

    println!("==== Fig 3 ====");
    let (k1, k9) = fig3::run();
    println!("{}", fig3::render(&k1));
    println!("{}", fig3::render(&k9));

    println!("==== Fig 4 ====");
    println!("{}", fig4::render(&fig4::run()));

    println!("==== Fig 5 ====");
    println!("{}", fig5::render(&fig5::run()));

    println!("==== Fig 6 ====");
    let (cpu, gpu) = fig6::run(100);
    println!(
        "{}",
        fig6::render("Fig 6A — CPU baselines (iso-cost)", &cpu)
    );
    println!(
        "{}",
        fig6::render("Fig 6B — GPU baselines (iso-cost)", &gpu)
    );

    println!("==== Section 7.5 ====");
    println!("{}", sec75::render(&sec75::run()));

    println!("==== Long-read tiling ====");
    println!("{}", tiling::render(&tiling::run()));

    println!("==== Ablations ====");
    print!("{}", ablation::render_all());

    println!("==== Configuration exploration (§6.2) ====");
    println!("{}", explore::render(&explore::run()));

    println!("==== Section 7.6 productivity proxy ====");
    let (kern, back) = productivity::run();
    println!("{}", productivity::render(&kern, &back));
}
