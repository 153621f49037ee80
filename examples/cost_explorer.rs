//! Explore the analytical cost model (Equations 1–4): for a handful of
//! parameter settings, print the memory and CPU cost of each sharing
//! strategy and the resulting savings of state-slicing, then Figure 11's
//! (a)–(c) saving surfaces over a (ρ, Sσ) grid in steps of 0.1.
//!
//! ```text
//! cargo run --example cost_explorer
//! ```

use state_slice_repro::cost_model::{
    pullup_cost, pushdown_cost, state_slice_cost, SavingsPoint, SystemParams,
};

fn main() {
    println!("# Analytical costs (Equations 1-3), lambda = 50 t/s, W2 = 60 s, Mt = 1 KB");
    println!(
        "{:<8} {:<8} {:<8} {:>12} {:>12} {:>12} {:>14} {:>14} {:>14}",
        "rho",
        "Ssigma",
        "S1",
        "mem pullup",
        "mem pushdn",
        "mem slice",
        "cpu pullup",
        "cpu pushdn",
        "cpu slice"
    );
    let settings = [
        (1.0 / 60.0, 0.01, 0.1), // the intro's motivation example
        (0.2, 0.2, 0.1),
        (0.5, 0.5, 0.1),
        (0.8, 0.8, 0.4),
        (0.33, 0.5, 0.025),
    ];
    for &(rho, sel_filter, sel_join) in &settings {
        let w2 = 60.0;
        let p = SystemParams::symmetric(50.0, rho * w2, w2, sel_filter, sel_join);
        let pu = pullup_cost(&p);
        let pd = pushdown_cost(&p);
        let ss = state_slice_cost(&p);
        println!(
            "{:<8.3} {:<8.2} {:<8.3} {:>12.0} {:>12.0} {:>12.0} {:>14.0} {:>14.0} {:>14.0}",
            rho,
            sel_filter,
            sel_join,
            pu.memory_kb,
            pd.memory_kb,
            ss.memory_kb,
            pu.cpu_per_sec,
            pd.cpu_per_sec,
            ss.cpu_per_sec
        );
    }

    println!("\n# Savings of state-slicing (Equation 4 / Figure 11)");
    println!(
        "{:<8} {:<8} {:<8} {:>16} {:>18} {:>16} {:>18}",
        "rho",
        "Ssigma",
        "S1",
        "mem vs pullup %",
        "mem vs pushdown %",
        "cpu vs pullup %",
        "cpu vs pushdown %"
    );
    for &(rho, sel_filter, sel_join) in &settings {
        let w2 = 60.0;
        let p = SystemParams::symmetric(50.0, rho * w2, w2, sel_filter, sel_join);
        let s = SavingsPoint::evaluate(&p);
        println!(
            "{:<8.3} {:<8.2} {:<8.3} {:>16.1} {:>18.1} {:>16.1} {:>18.1}",
            rho,
            sel_filter,
            sel_join,
            100.0 * s.mem_vs_pullup,
            100.0 * s.mem_vs_pushdown,
            100.0 * s.cpu_vs_pullup,
            100.0 * s.cpu_vs_pushdown
        );
    }

    let grid: Vec<f64> = (1..10).map(|i| i as f64 / 10.0).collect();
    let savings = |rho: f64, sel_filter: f64, sel_join: f64| {
        let w2 = 60.0;
        SavingsPoint::evaluate(&SystemParams::symmetric(
            50.0,
            rho * w2,
            w2,
            sel_filter,
            sel_join,
        ))
    };

    // Memory savings do not depend on S⋈; Figure 11(a) draws S⋈ = 0.1.
    println!("\n# Figure 11(a): memory saving (%) of State-Slice");
    println!(
        "{:<8} {:<8} {:>24} {:>26}",
        "rho", "Ssigma", "vs Selection-PullUp", "vs Selection-PushDown"
    );
    for &rho in &grid {
        for &sel_filter in &grid {
            let s = savings(rho, sel_filter, 0.1);
            println!(
                "{:<8.2} {:<8.2} {:>24.1} {:>26.1}",
                rho,
                sel_filter,
                100.0 * s.mem_vs_pullup,
                100.0 * s.mem_vs_pushdown
            );
        }
    }

    for (panel, vs_pullup) in [("(b)", true), ("(c)", false)] {
        let baseline = if vs_pullup { "PullUp" } else { "PushDown" };
        println!("\n# Figure 11{panel}: CPU saving (%) vs Selection-{baseline}");
        println!(
            "{:<8} {:<8} {:>10} {:>10} {:>10}",
            "rho", "Ssigma", "S1=0.4", "S1=0.1", "S1=0.025"
        );
        for &rho in &grid {
            for &sel_filter in &grid {
                let [a, b, c] = [0.4, 0.1, 0.025].map(|sel_join| {
                    let s = savings(rho, sel_filter, sel_join);
                    100.0
                        * if vs_pullup {
                            s.cpu_vs_pullup
                        } else {
                            s.cpu_vs_pushdown
                        }
                });
                println!("{rho:<8.2} {sel_filter:<8.2} {a:>10.1} {b:>10.1} {c:>10.1}");
            }
        }
    }
}
