//! The Figure 9 ablations on one subject: dependence-guided search vs
//! random edit order, and the coding-style checker vs always-compile.
//!
//! ```text
//! cargo run --release --example ablation [P1..P10]
//! ```

use heterogen_toolchain::{Env, SimBackend};
use repair::SearchConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let id = std::env::args().nth(1).unwrap_or_else(|| "P3".to_string());
    let subject = benchsuite::subject(&id).unwrap_or_else(|| {
        eprintln!("unknown subject {id}; use P1..P10");
        std::process::exit(2);
    });
    let program = subject.parse();

    // One evaluation context for both stages: the default backend, which
    // also fixes the execution engine; tracing, faults and persistence off.
    let env = Env::new(SimBackend::default_profile());

    // Shared test generation.
    let fuzz_cfg = testgen::FuzzConfig::builder()
        .with_idle_stop_min(1.0)
        .with_max_execs(600)
        .build();
    let mut seeds = subject.seed_inputs.clone();
    seeds.extend(subject.existing_tests.clone());
    let fr = testgen::fuzz(&program, subject.kernel, seeds, &fuzz_cfg, &env)?;
    let broken = heterogen_core::initial_version(&program, &fr.profile);
    println!(
        "{id}: {} tests, {:.0}% coverage, {} initial errors",
        fr.corpus.len(),
        fr.coverage * 100.0,
        hls_sim::check_program(&broken).len()
    );

    let base = SearchConfig::builder()
        .with_budget_min(180.0)
        .with_max_diff_tests(24)
        .with_explore_performance(false)
        .build();
    let run = |name: &str, cfg: SearchConfig| {
        let out = repair::repair(
            &program,
            broken.clone(),
            subject.kernel,
            &fr.corpus,
            &fr.profile,
            &cfg,
            &env,
        )
        .expect("repair runs");
        println!(
            "{name:<18} success={} time-to-fix={} compiles={} style-rejects={} (invoked {:.0}%)",
            out.success,
            out.stats
                .first_success_min
                .map(|m| format!("{m:.1} min"))
                .unwrap_or_else(|| "timeout".to_string()),
            out.stats.full_compiles,
            out.stats.style_rejects,
            out.stats.hls_invocation_ratio() * 100.0,
        );
        out
    };

    println!("\n=== Figure 9 ablations (simulated toolchain minutes) ===");
    let hg = run("HeteroGen", base.clone());
    let wd = run(
        "WithoutDependence",
        base.clone()
            .to_builder()
            .with_dependence(false)
            .with_budget_min(720.0)
            .build(),
    );
    let _wc = run(
        "WithoutChecker",
        base.to_builder().with_style_checker(false).build(),
    );

    if let (Some(h), Some(w)) = (hg.stats.first_success_min, wd.stats.first_success_min) {
        println!(
            "\ndependence-guided exploration speedup: {:.1}x",
            w / h.max(0.01)
        );
    } else if wd.stats.first_success_min.is_none() {
        println!("\nWithoutDependence failed within its 12-hour budget (paper: same on P9)");
    }
    Ok(())
}
