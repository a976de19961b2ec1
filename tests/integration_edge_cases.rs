//! Degenerate-configuration edge cases across the stack: 1×1 arrays,
//! single-segment tables, unit-size workload phases and FIFO
//! backpressure — the corners a downstream user hits first.

use onesa_core::OneSa;
use onesa_cpwl::{NonlinearFn, PwlTable};
use onesa_nn::profile::OpClass;
use onesa_nn::workloads::{ModelFamily, Phase, Workload};
use onesa_sim::array::SystolicArray;
use onesa_sim::fifo::Fifo;
use onesa_sim::{analytic, ArrayConfig};
use onesa_tensor::{gemm, Tensor};

#[test]
fn one_by_one_array_still_computes() {
    // A 1×1 grid degenerates to a single MAC-vector PE; both dataflows
    // must still be functionally correct.
    let cfg = ArrayConfig::new(1, 4);
    let mut arr = SystolicArray::new(cfg.clone());
    let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
    let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3, 1]).unwrap();
    let run = arr.gemm_tile(&a, &b).unwrap();
    assert_eq!(run.output.as_slice(), &[32.0]);

    let x = Tensor::from_vec(vec![1.0, -2.0], &[1, 2]).unwrap();
    let k = Tensor::from_vec(vec![3.0, 0.5], &[1, 2]).unwrap();
    let bias = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).unwrap();
    let run = arr.mhp_row_tile(&x, &k, &bias).unwrap();
    assert_eq!(run.output, gemm::mhp(&x, &k, &bias).unwrap());

    // Analytic model agrees on the single-tile phases.
    let model = analytic::gemm_breakdown(&cfg, 1, 3, 1);
    assert_eq!(model.skew, 0);
    assert_eq!(model.compute, 1);
}

#[test]
fn single_segment_table_is_one_chord() {
    let t = PwlTable::builder(NonlinearFn::Tanh)
        .granularity(8.0)
        .range(-4.0, 4.0)
        .build()
        .unwrap();
    assert_eq!(t.n_segments(), 1);
    // The single chord connects tanh(-4) to tanh(4): nearly y = x/4.
    let (k, b) = t.params(0);
    assert!((k - (4.0f32.tanh() - (-4.0f32).tanh()) / 8.0).abs() < 1e-6);
    assert!(b.abs() < 1e-6);
    // Every input lands in segment 0, capped or not.
    for x in [-100.0f32, -1.0, 0.0, 1.0, 100.0] {
        assert_eq!(t.segment_index(x), 0);
    }
}

#[test]
fn unit_gemm_and_unit_nonlinear_phases() {
    let engine = OneSa::new(ArrayConfig::new(8, 16));
    let w = Workload {
        name: "unit".to_string(),
        family: ModelFamily::Cnn,
        phases: vec![
            Phase::Gemm { m: 1, k: 1, n: 1 },
            Phase::Pointwise {
                class: OpClass::Activation,
                m: 1,
                n: 1,
                gelu_like: false,
            },
            Phase::Softmax { rows: 1, cols: 1 },
            Phase::Norm { rows: 1, cols: 1 },
        ],
    };
    let r = engine.run_workload(&w);
    assert!(r.stats.cycles() > 0);
    assert_eq!(w.total_macs(), 1);
    assert_eq!(w.nonlinear_elems(), 3);
}

#[test]
fn empty_workload_report_is_zero() {
    let engine = OneSa::default();
    let w = Workload {
        name: "empty".to_string(),
        family: ModelFamily::Gnn,
        phases: vec![],
    };
    let r = engine.run_workload(&w);
    assert_eq!(r.stats.cycles(), 0);
    assert_eq!(r.gops(), 0.0);
    assert_eq!(r.utilization(), 0.0);
}

#[test]
fn fifo_backpressure_round_trip() {
    // A producer streaming faster than the consumer must see rejections,
    // and every rejected value must be retriable without loss.
    let mut f: Fifo<u32> = Fifo::new(4);
    let mut consumed = Vec::new();
    let mut pending: Option<u32> = None;
    let mut next = 0u32;
    for step in 0..100 {
        // Produce every cycle, consume every other cycle.
        let value = pending.take().unwrap_or_else(|| {
            let v = next;
            next += 1;
            v
        });
        if let Err(onesa_sim::fifo::FifoFull(v)) = f.push(value) {
            pending = Some(v);
        }
        if step % 2 == 1 {
            if let Some(v) = f.pop() {
                consumed.push(v);
            }
        }
    }
    while let Some(v) = f.pop() {
        consumed.push(v);
    }
    // In-order, gap-free delivery despite backpressure.
    for (i, &v) in consumed.iter().enumerate() {
        assert_eq!(v as usize, i);
    }
    assert!(f.rejected_pushes() > 0, "test never exercised backpressure");
    assert_eq!(f.high_water(), 4);
}

#[test]
fn macs_wider_than_k_waste_no_correctness() {
    // K smaller than the MAC vector: one partial chunk per tile.
    let cfg = ArrayConfig::new(4, 16);
    let mut arr = SystolicArray::new(cfg.clone());
    let a = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[4, 2]).unwrap();
    let b = Tensor::from_vec((0..8).map(|i| (i as f32) * 0.5).collect(), &[2, 4]).unwrap();
    let run = arr.gemm_tile(&a, &b).unwrap();
    let reference = gemm::matmul(&a, &b).unwrap();
    assert_eq!(run.output, reference);
    assert_eq!(analytic::gemm_breakdown(&cfg, 4, 2, 4).compute, 1);
}

#[test]
fn capped_inputs_dominate_gracefully() {
    // A tensor entirely outside the table range: every lookup caps, and
    // the result is the boundary chords' extrapolation, not garbage.
    let t = PwlTable::builder(NonlinearFn::Sigmoid)
        .granularity(0.5)
        .build()
        .unwrap();
    let x = Tensor::filled(&[4, 4], 1000.0);
    let y = t.eval_tensor(&x).unwrap();
    for &v in y.as_slice() {
        assert!(v.is_finite());
        assert!((v - 1.0).abs() < 0.6, "sigmoid cap wildly off: {v}");
    }
    let ipf = t.ipf(&x);
    assert!(ipf
        .segments
        .iter()
        .all(|&s| s as usize == t.n_segments() - 1));
}
