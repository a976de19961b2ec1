//! Parallel-backend integration: every execution policy — thread counts
//! 1/2/4, `Auto`, batched serving — must be
//! **bit-identical** to its sequential counterpart. Host parallelism is a
//! speed knob, never a numerics knob.

use onesa_core::{BatchEngine, OneSa, Parallelism, Request};
use onesa_cpwl::NonlinearFn;
use onesa_sim::{ArrayConfig, ExecStats};
use onesa_tensor::rng::Pcg32;
use onesa_tensor::{gemm, parallel, Tensor};

const THREAD_COUNTS: [Parallelism; 4] = [
    Parallelism::Threads(1),
    Parallelism::Threads(2),
    Parallelism::Threads(4),
    Parallelism::Auto,
];

fn assert_bit_identical(label: &str, got: &Tensor, want: &Tensor) {
    assert_eq!(got.dims(), want.dims(), "{label}: shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{label}: element {i}: {g} vs {w}");
    }
}

#[test]
fn parallel_matmul_bit_identical_across_thread_counts() {
    let mut rng = Pcg32::seed_from_u64(1);
    // Shapes straddling the microkernel's row-block and panel widths,
    // including remainders in every dimension.
    for (m, k, n) in [
        (1, 1, 1),
        (7, 5, 3),
        (48, 32, 48),
        (65, 33, 97),
        (96, 64, 50),
    ] {
        let a = rng.randn(&[m, k], 1.0);
        let b = rng.randn(&[k, n], 1.0);
        let reference = gemm::matmul(&a, &b).unwrap();
        for par in THREAD_COUNTS {
            let out = parallel::matmul(&a, &b, par).unwrap();
            assert_bit_identical(
                &format!("matmul {m}x{k}x{n} {}", par.label()),
                &out,
                &reference,
            );
        }
    }
}

#[test]
fn parallel_matmul_preserves_zero_skip_semantics() {
    // The reference kernel skips A-elements that are exactly zero; the
    // blocked backend must reproduce that skip (sparse activations after
    // ReLU make zeros in A the common case, and ±0.0 is sign-sensitive).
    let mut rng = Pcg32::seed_from_u64(2);
    let mut a = rng.randn(&[19, 23], 1.0);
    for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
        if i % 3 == 0 {
            *v = 0.0;
        } else if i % 7 == 0 {
            *v = -0.0;
        }
    }
    let b = rng.randn(&[23, 51], 1.0);
    let reference = gemm::matmul(&a, &b).unwrap();
    for par in THREAD_COUNTS {
        let out = parallel::matmul(&a, &b, par).unwrap();
        assert_bit_identical(&format!("zeroed matmul {}", par.label()), &out, &reference);
    }
}

#[test]
fn parallel_mhp_bit_identical_across_thread_counts() {
    let mut rng = Pcg32::seed_from_u64(3);
    for dims in [vec![3, 5], vec![80, 90]] {
        let x = rng.randn(&dims, 1.0);
        let k = rng.randn(&dims, 1.0);
        let b = rng.randn(&dims, 1.0);
        let reference = gemm::mhp(&x, &k, &b).unwrap();
        for par in THREAD_COUNTS {
            let out = parallel::mhp(&x, &k, &b, par).unwrap();
            assert_bit_identical(&format!("mhp {dims:?} {}", par.label()), &out, &reference);
        }
    }
}

#[test]
fn batch_engine_bit_identical_to_solo_requests() {
    let mut rng = Pcg32::seed_from_u64(5);
    let w = rng.randn(&[24, 18], 1.0);
    let gemm_inputs: Vec<Tensor> = (0..4).map(|i| rng.randn(&[3 + 4 * i, 24], 1.0)).collect();
    let nl_inputs: Vec<Tensor> = (0..3).map(|i| rng.randn(&[5, 6 + i], 1.5)).collect();
    let mut first_stats: Option<Vec<ExecStats>> = None;
    for par in THREAD_COUNTS {
        let engine = OneSa::with_parallelism(ArrayConfig::new(8, 16), par);
        let mut serving = BatchEngine::new(engine, 0.25).unwrap();
        for a in &gemm_inputs {
            serving.submit(Request::gemm(a.clone(), w.clone()));
        }
        for x in &nl_inputs {
            serving.submit(Request::nonlinear(NonlinearFn::Gelu, x.clone()));
        }
        let run = serving.run().unwrap();
        for (i, a) in gemm_inputs.iter().enumerate() {
            let want = gemm::matmul(a, &w).unwrap();
            assert_bit_identical(
                &format!("batched gemm #{i} {}", par.label()),
                &run.outcomes[i].output,
                &want,
            );
        }
        let tables = onesa_cpwl::ops::TableSet::for_granularity(0.25).unwrap();
        for (i, x) in nl_inputs.iter().enumerate() {
            let want = tables.gelu(x).unwrap();
            let got = &run.outcomes[gemm_inputs.len() + i].output;
            assert_bit_identical(&format!("batched gelu #{i} {}", par.label()), got, &want);
        }
        assert!(run.report.batching_speedup() >= 1.0);
        // Simulated array stats describe the workload, not the host.
        let stats: Vec<ExecStats> = run.outcomes.iter().map(|o| o.stats.clone()).collect();
        let want = first_stats.get_or_insert_with(|| stats.clone());
        assert_eq!(&stats, want, "stats {}", par.label());
    }
}
