//! Test generation on its own (paper §4, Algorithm 1): seed capture from a
//! host run, HLS-type-aware mutation, branch-coverage feedback.
//!
//! ```text
//! cargo run --release --example fuzz_coverage
//! ```

use heterogen_toolchain::{Env, SimBackend};
use testgen::{fuzz, kernel_seeds_from_host, FuzzConfig};

/// A kernel with hard-to-reach branches plus a host that builds a valid
/// seed input — the paper's `getKernelSeed` captures the kernel-entry state
/// of the host run.
const PROGRAM: &str = r#"
int classify(int a[8], int n) {
    if (n < 1) { return -1; }
    if (n > 8) { n = 8; }
    int sum = 0;
    int peak = -1000000;
    for (int i = 0; i < n; i++) {
        sum = sum + a[i];
        if (a[i] > peak) { peak = a[i]; }
    }
    if (peak > 1000) {
        if (sum < 0) { return 3; }
        return 2;
    }
    if (sum % 7 == 0) { return 1; }
    return 0;
}

int host_main() {
    int buf[8];
    for (int i = 0; i < 8; i++) { buf[i] = i * 4; }
    return classify(buf, 8);
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = minic::parse(PROGRAM)?;

    // Step 1: run the host, capture the kernel-entry arguments as seeds.
    let seeds = kernel_seeds_from_host(&program, "host_main", "classify", vec![]);
    println!("captured {} seed(s) from the host run:", seeds.len());
    for s in &seeds {
        println!("  {s:?}");
    }

    // Step 2: coverage-guided, type-valid mutation.
    let cfg = FuzzConfig::builder()
        .with_idle_stop_min(2.0)
        .with_max_execs(3000)
        .build();
    let report = fuzz(
        &program,
        "classify",
        seeds,
        &cfg,
        &Env::new(SimBackend::default_profile()),
    )?;

    println!("\nexecuted inputs ........ {}", report.executed);
    println!("corpus (kept) .......... {}", report.corpus.len());
    println!("branch coverage ........ {:.1}%", report.coverage * 100.0);
    println!("simulated minutes ...... {:.0}", report.sim_minutes);

    println!("\nvalue profile (drives bitwidth finitization):");
    for ((f, v), r) in &report.profile.int_ranges {
        let (bits, signed) = r.required_bits();
        println!(
            "  {f}::{v}: observed [{}, {}] → {} {} bits",
            r.min,
            r.max,
            if signed { "signed" } else { "unsigned" },
            bits
        );
    }

    assert!(report.coverage > 0.8, "expected >80% branch coverage");
    Ok(())
}
