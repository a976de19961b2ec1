//! End-to-end integration: the CPWL lowerings stay close to the exact
//! ops and cost array cycles, and whole-workload reports behave like the
//! paper's evaluation.

use onesa_core::OneSa;
use onesa_cpwl::ops::{self, TableSet};
use onesa_nn::workloads;
use onesa_sim::{analytic, ArrayConfig, ParamStaging};
use onesa_tensor::rng::Pcg32;
use onesa_tensor::stats;

#[test]
fn engine_softmax_equals_lowered_reference_and_is_close_to_exact() {
    let tables = TableSet::for_granularity(0.25).unwrap();
    let x = Pcg32::seed_from_u64(1).randn(&[16, 24], 2.0);
    let y = tables.softmax_rows(&x).unwrap();
    let exact = ops::softmax_rows_exact(&x).unwrap();
    assert!(stats::rms_diff(y.as_slice(), exact.as_slice()) < 0.01);
    let s = analytic::softmax_stats(&ArrayConfig::default(), 16, 24);
    assert!(s.cycles() > 0 && s.nonlinear_evals > 0);
}

#[test]
fn engine_layernorm_equals_lowered_reference() {
    let tables = TableSet::for_granularity(0.25).unwrap();
    let x = Pcg32::seed_from_u64(2).randn(&[8, 32], 1.5);
    let gamma = vec![1.0f32; 32];
    let beta = vec![0.0f32; 32];
    let y = tables.layernorm_rows(&x, &gamma, &beta, 1e-5).unwrap();
    let exact = ops::layernorm_rows_exact(&x, &gamma, &beta, 1e-5).unwrap();
    assert!(stats::rms_diff(y.as_slice(), exact.as_slice()) < 0.05);
    let s = analytic::norm_stats(&ArrayConfig::default(), 8, 32);
    assert!(s.cycles() > 0 && s.nonlinear_evals > 0);
}

#[test]
fn table4_shape_holds() {
    // The paper's comparison shape: ONE-SA efficiency beats CPU by a
    // large factor, beats the SoC, is below the GPU in absolute
    // throughput, and is comparable (0.8×–1.4×) to the fixed-function
    // accelerators on their home turf.
    let engine = OneSa::new(ArrayConfig::new(8, 16));
    let resnet = engine.run_workload(&workloads::resnet50(224));
    let bert = engine.run_workload(&workloads::bert_base(64));

    let cpu = onesa_baselines::cpu_i7_11700();
    let gpu = onesa_baselines::gpu_3090ti();
    let soc = onesa_baselines::soc_agx_orin();
    use onesa_nn::workloads::ModelFamily::{Cnn, Transformer};

    let cpu_eff = cpu.gops_per_watt(Cnn).unwrap();
    assert!(
        resnet.gops_per_watt() / cpu_eff > 5.0,
        "CPU ratio too small"
    );
    assert!(resnet.gops_per_watt() > soc.gops_per_watt(Cnn).unwrap());
    assert!(resnet.gops() < gpu.gops_for(Cnn).unwrap());

    // Fixed accelerators: same level (0.8–1.4×), not an order of
    // magnitude apart.
    for fixed in [onesa_baselines::angel_eye(), onesa_baselines::vgg16_accel()] {
        let ratio = resnet.gops_per_watt() / fixed.gops_per_watt(Cnn).unwrap();
        assert!((0.7..1.5).contains(&ratio), "{}: ratio {ratio}", fixed.name);
    }
    for fixed in [onesa_baselines::npe(), onesa_baselines::ftrans()] {
        let ratio = bert.gops_per_watt() / fixed.gops_per_watt(Transformer).unwrap();
        assert!((0.7..1.5).contains(&ratio), "{}: ratio {ratio}", fixed.name);
    }
}

#[test]
fn flexibility_one_engine_runs_all_three_families() {
    let engine = OneSa::new(ArrayConfig::new(8, 16));
    let mut efficiencies = Vec::new();
    for w in workloads::table4_workloads() {
        let r = engine.run_workload(&w);
        assert!(r.latency_ms() > 0.0, "{}", w.name);
        efficiencies.push(r.gops_per_watt());
    }
    // All within one small band — no family is pathological.
    let min = efficiencies.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = efficiencies.iter().cloned().fold(0.0, f64::max);
    assert!(max / min < 2.0, "efficiency spread {min}..{max}");
}

#[test]
fn dram_staging_ablation_slows_nonlinear_heavy_workloads() {
    // §IV-A's literal DRAM round trip versus the fused default.
    let fused = OneSa::new(ArrayConfig::new(8, 16));
    let mut cfg = ArrayConfig::new(8, 16);
    cfg.staging = ParamStaging::Dram;
    let dram = OneSa::new(cfg);
    let w = workloads::bert_base(64); // softmax/LN heavy
    let f = fused.run_workload(&w).latency_ms();
    let d = dram.run_workload(&w).latency_ms();
    assert!(d > f * 1.05, "dram {d} ms vs fused {f} ms");
}

#[test]
fn split_design_comparison_is_generated_for_all_workloads() {
    // Table IV prints one split-design footnote per family, each from
    // that family's own cycles: a footnote that read the same under every
    // family would be a constant, not a comparison.
    let report = onesa_bench::table4_report();
    let footnotes: Vec<&str> = report
        .lines()
        .filter(|l| l.contains("split GEMM+SFU design"))
        .collect();
    assert_eq!(
        footnotes.len(),
        workloads::table4_workloads().len(),
        "{report}"
    );
    for (i, f) in footnotes.iter().enumerate() {
        assert!(!footnotes[..i].contains(f), "repeated footnote {f}");
        assert!(!f.contains("NaN") && !f.contains("inf"), "{f}");
    }
}
