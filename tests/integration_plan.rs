//! Integration suite for the operator-graph Program IR
//! (`onesa_core::plan` + `onesa_nn::compile`).
//!
//! Locks in the two contracts of the whole-network refactor:
//!
//! 1. **Bit-identicality** — every model family's compiled program
//!    produces outputs bit-identical to the direct layer-by-layer
//!    reference path (`logits_direct` / `predict_direct`), for every
//!    `InferenceMode`, whether run solo, through
//!    `BatchEngine::submit_program`, or through a `ServeEngine` pool
//!    under every `AdmissionPolicy` × `RoutePolicy`.
//! 2. **Cross-program per-stage coalescing** — concurrent instances of
//!    the same network collapse their per-stage kernels (shared-weight
//!    GEMM stacking and shared-table IPF concatenation) at *multiple*
//!    stages, not just the classifier: kernel-group counts drop versus
//!    uncoalesced solo runs.

use onesa_core::plan::{Compile, OptLevel, TableCache};
use onesa_core::serve::{AdmissionPolicy, RoutePolicy, ServeConfig, ServeEngine, Ticket};
use onesa_core::{BatchEngine, OneSa, Parallelism, Request};
use onesa_data::Difficulty;
use onesa_nn::models::{Gcn, SmallCnn, TinyBert};
use onesa_nn::InferenceMode;
use onesa_sim::ArrayConfig;
use onesa_tensor::parallel::PackedLhs;
use onesa_tensor::rng::Pcg32;
use onesa_tensor::Tensor;

fn assert_bits_eq(label: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label}: element {i} differs ({g} vs {w})"
        );
    }
}

fn modes() -> Vec<InferenceMode> {
    vec![
        InferenceMode::Exact,
        InferenceMode::cpwl(0.25).unwrap(),
        InferenceMode::cpwl_unquantized(0.5).unwrap(),
    ]
}

const SEQ: Parallelism = Parallelism::Sequential;

/// The three untrained (but deterministic-weight) model instances plus a
/// graph for the GCN.
fn models() -> (SmallCnn, TinyBert, Gcn, onesa_data::GraphDataset) {
    let cnn = SmallCnn::new(11, 1, 3);
    let bert = TinyBert::new(5, 32, 12, 2, 2);
    let graph = onesa_data::GraphDataset::generate("t", 4, Difficulty::easy(3), 20, 6, 0.3);
    let gcn = Gcn::new(6, 6, 8, 3);
    (cnn, bert, gcn, graph)
}

#[test]
fn compiled_programs_bit_identical_to_direct_paths() {
    let (cnn, bert, gcn, graph) = models();
    let x = Pcg32::seed_from_u64(1).randn(&[1, 8, 8], 1.0);
    let seq: Vec<usize> = vec![3, 1, 4, 1, 5, 9, 2, 6];
    for mode in modes() {
        let label = mode.label();
        let mut cache = TableCache::new();

        let p = cnn.compile((&mode, (8, 8))).unwrap();
        let run = p.run(std::slice::from_ref(&x), SEQ, &mut cache).unwrap();
        assert_bits_eq(
            &format!("cnn {label}"),
            run.output.as_slice(),
            &cnn.logits_direct(&x, &mode),
        );

        let p = bert.compile((&mode, seq.len())).unwrap();
        let run = p
            .run(&[TinyBert::ids_tensor(&seq)], SEQ, &mut cache)
            .unwrap();
        assert_bits_eq(
            &format!("bert {label}"),
            run.output.as_slice(),
            &bert.predict_direct(&seq, &mode),
        );

        let p = gcn.compile((&mode, &graph)).unwrap();
        let run = p
            .run(std::slice::from_ref(&graph.x), SEQ, &mut cache)
            .unwrap();
        assert_bits_eq(
            &format!("gcn {label}"),
            run.output.as_slice(),
            gcn.logits_direct(&graph, &mode).as_slice(),
        );
    }
}

#[test]
fn batch_engine_program_path_bit_identical_for_every_parallelism() {
    let (cnn, bert, gcn, graph) = models();
    let mode = InferenceMode::cpwl(0.25).unwrap();
    let x = Pcg32::seed_from_u64(2).randn(&[1, 8, 8], 1.0);
    let seq: Vec<usize> = vec![7, 2, 9, 4, 4, 1];
    let mut serving = BatchEngine::new(OneSa::new(ArrayConfig::new(8, 16)), 0.25).unwrap();
    serving
        .submit_program(cnn.compile((&mode, (8, 8))).unwrap(), vec![x.clone()])
        .unwrap();
    serving
        .submit_program(
            bert.compile((&mode, seq.len())).unwrap(),
            vec![TinyBert::ids_tensor(&seq)],
        )
        .unwrap();
    serving
        .submit_program(gcn.compile((&mode, &graph)).unwrap(), vec![graph.x.clone()])
        .unwrap();
    let run = serving.run().unwrap();
    assert_bits_eq(
        "cnn via engine",
        run.outcomes[0].output.as_slice(),
        &cnn.logits(&x, &mode),
    );
    assert_bits_eq(
        "bert via engine",
        run.outcomes[1].output.as_slice(),
        &bert.predict(&seq, &mode),
    );
    assert_bits_eq(
        "gcn via engine",
        run.outcomes[2].output.as_slice(),
        gcn.logits(&graph, &mode).as_slice(),
    );
    // Heterogeneous programs share no weights: per-stage groups
    // equal per-stage ops, and solo stats surface per request.
    assert!(!run.program_stages.is_empty());
    assert!(run.outcomes.iter().all(|o| o.stats.macs > 0));
}

#[test]
fn concurrent_programs_coalesce_at_multiple_stages_not_just_the_classifier() {
    // What production serves — the `Standard`-optimized CNN, 24 stages —
    // at 1, 2, 4 and 8 concurrent instances through one `BatchEngine`.
    // Same model + same mode = shared weights and shared tables, so at
    // any concurrency seven stages coalesce: the four shared-weight
    // GEMMs (all three convolutions, not just the classifier) and the
    // three shared-table ReLUs. Kernel-group counts and the modeled array
    // time are deterministic and pinned exactly.
    let (cnn, _, _, _) = models();
    let mode = InferenceMode::cpwl(0.25).unwrap();
    let mut rng = Pcg32::seed_from_u64(3);
    let xs: Vec<Tensor> = (0..8).map(|_| rng.randn(&[1, 8, 8], 1.0)).collect();
    let program = cnn
        .compile_optimized((&mode, (8, 8)), OptLevel::Standard)
        .unwrap();
    assert_eq!((program.stages(), program.modeled_macs()), (24, 86_232));
    // (instances, kernel groups where solo runs take `24 * instances`,
    // coalesced stages, array seconds): against `instances` solo runs the
    // staged schedule is 1.104x / 1.164x / 1.197x faster at 2 / 4 / 8.
    for (n, kernel_groups, stages_coalesced, array_seconds) in [
        (1, 24, 0, 6.08e-6),
        (2, 41, 7, 1.1015e-5),
        (4, 75, 7, 2.089e-5),
        (8, 143, 7, 4.0635e-5),
    ] {
        let mut serving = BatchEngine::new(OneSa::new(ArrayConfig::new(8, 16)), 0.25).unwrap();
        for x in &xs[..n] {
            serving
                .submit_program(program.clone(), vec![x.clone()])
                .unwrap();
        }
        let run = serving.run().unwrap();
        for (o, x) in run.outcomes.iter().zip(&xs) {
            assert_bits_eq("coalesced cnn", o.output.as_slice(), &cnn.logits(x, &mode));
        }
        let stages = &run.program_stages;
        let coalesced: Vec<usize> = stages
            .iter()
            .filter(|s| s.ops == n && s.groups < n)
            .map(|s| s.stage)
            .collect();
        assert_eq!(coalesced.len(), stages_coalesced, "{n} programs");
        assert!(
            n == 1 || coalesced.iter().any(|&s| s < stages.len() - 1),
            "coalescing must not be classifier-only: {coalesced:?}"
        );
        let groups: usize = stages.iter().map(|s| s.groups).sum();
        assert_eq!(groups, kernel_groups, "{n} programs");
        // A coalesced stage counts once, whatever the concurrency.
        let report = &run.report;
        assert_eq!((report.gemm_groups, report.nonlinear_groups), (4, 3));
        assert_eq!(report.batched_seconds, array_seconds, "{n} programs");
    }
}

#[test]
fn serve_engine_programs_bit_identical_for_every_policy_combination() {
    let (cnn, bert, gcn, graph) = models();
    let mode = InferenceMode::cpwl(0.25).unwrap();
    let mut rng = Pcg32::seed_from_u64(4);
    let images: Vec<Tensor> = (0..2).map(|_| rng.randn(&[1, 8, 8], 1.0)).collect();
    let seqs: Vec<Vec<usize>> = vec![vec![1, 2, 3, 4], vec![9, 8, 7, 6, 5]];

    // Direct-path oracles, computed once.
    let want_cnn: Vec<Vec<f32>> = images.iter().map(|x| cnn.logits_direct(x, &mode)).collect();
    let want_bert: Vec<Vec<f32>> = seqs.iter().map(|s| bert.predict_direct(s, &mode)).collect();
    let want_gcn = gcn.logits_direct(&graph, &mode);

    let admissions = [
        AdmissionPolicy::Fifo { window: 4 },
        AdmissionPolicy::Deadline {
            window: 4,
            drop_expired: false,
        },
        AdmissionPolicy::SizeCapped { max_macs: 50_000 },
    ];
    let routings = [
        RoutePolicy::RoundRobin,
        RoutePolicy::LeastLoaded,
        RoutePolicy::WeightAffinity,
    ];
    for admission in admissions {
        for routing in routings {
            let pool = ServeEngine::start(
                ServeConfig::uniform(2, ArrayConfig::new(8, 16), SEQ)
                    .with_admission(admission)
                    .with_routing(routing),
            )
            .unwrap();
            let label = format!("{admission:?}/{routing:?}");
            let mut tickets: Vec<Ticket> = Vec::new();
            for x in &images {
                tickets.push(
                    pool.submit_program(cnn.compile((&mode, (8, 8))).unwrap(), vec![x.clone()])
                        .unwrap(),
                );
            }
            for s in &seqs {
                tickets.push(
                    pool.submit_program(
                        bert.compile((&mode, s.len())).unwrap(),
                        vec![TinyBert::ids_tensor(s)],
                    )
                    .unwrap(),
                );
            }
            tickets.push(
                pool.submit_program(gcn.compile((&mode, &graph)).unwrap(), vec![graph.x.clone()])
                    .unwrap(),
            );
            let outcomes: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
            for (i, want) in want_cnn.iter().enumerate() {
                assert_bits_eq(&format!("cnn {label}"), outcomes[i].output.as_slice(), want);
            }
            for (i, want) in want_bert.iter().enumerate() {
                assert_bits_eq(
                    &format!("bert {label}"),
                    outcomes[2 + i].output.as_slice(),
                    want,
                );
            }
            assert_bits_eq(
                &format!("gcn {label}"),
                outcomes[4].output.as_slice(),
                want_gcn.as_slice(),
            );
            let summary = pool.finish().unwrap();
            assert_eq!(summary.report.requests, 5, "{label}");
            assert_eq!(summary.expired, 0, "{label}");
        }
    }
}

#[test]
fn affinity_routed_program_windows_coalesce_on_their_shard() {
    // Eight instances of the same (served, `Standard`-optimized) CNN land
    // on one shard under weight-affinity routing (equal program
    // fingerprints) and coalesce there: the pool-wide gemm-group count
    // collapses.
    let (cnn, _, _, _) = models();
    let mode = InferenceMode::cpwl(0.25).unwrap();
    let mut rng = Pcg32::seed_from_u64(5);
    let xs: Vec<Tensor> = (0..8).map(|_| rng.randn(&[1, 8, 8], 1.0)).collect();
    let program = cnn
        .compile_optimized((&mode, (8, 8)), OptLevel::Standard)
        .unwrap();
    let gemm_stages = 4; // 3 convs + classifier

    let pool = ServeEngine::start(
        ServeConfig::uniform(2, ArrayConfig::new(8, 16), SEQ)
            .with_admission(AdmissionPolicy::Fifo { window: 16 })
            .with_routing(RoutePolicy::WeightAffinity)
            .start_paused(),
    )
    .unwrap();
    let tickets: Vec<Ticket> = xs
        .iter()
        .map(|x| {
            pool.submit_program(program.clone(), vec![x.clone()])
                .unwrap()
        })
        .collect();
    pool.resume();
    let shards: Vec<usize> = tickets
        .into_iter()
        .map(|t| t.wait().unwrap().shard)
        .collect();
    assert!(
        shards.windows(2).all(|w| w[0] == w[1]),
        "affinity scattered same-program requests: {shards:?}"
    );
    let summary = pool.finish().unwrap();
    // One window, all eight programs on one shard: each GEMM stage is a
    // single coalesced kernel call instead of eight, and the pool's
    // modeled speedup is exactly the staged scheduler's at eight
    // concurrent programs (8 solo runs of 6.08 us over 40.635 us).
    assert_eq!(summary.report.gemm_groups, gemm_stages);
    assert_eq!(summary.report.batched_seconds, 4.0635e-5);
    assert_eq!(summary.modeled_speedup(), 1.1969976621139413);
    assert_eq!((summary.windows, summary.expired), (1, 0));
}

/// The tentpole contract: programs optimized at every [`OptLevel`] are
/// bit-identical to the unoptimized emission for every model family ×
/// mode × engine path.
#[test]
fn optimized_programs_match_unoptimized_across_models_modes_and_engines() {
    let (cnn, bert, gcn, graph) = models();
    let x = Pcg32::seed_from_u64(7).randn(&[1, 8, 8], 1.0);
    let seq: Vec<usize> = vec![3, 1, 4, 1, 5, 9];
    for mode in modes() {
        let mut cache = TableCache::new();
        let programs: Vec<(onesa_core::Program, Vec<Tensor>, &str)> = vec![
            (
                cnn.compile((&mode, (8, 8))).unwrap(),
                vec![x.clone()],
                "cnn",
            ),
            (
                bert.compile((&mode, seq.len())).unwrap(),
                vec![TinyBert::ids_tensor(&seq)],
                "bert",
            ),
            (
                gcn.compile((&mode, &graph)).unwrap(),
                vec![graph.x.clone()],
                "gcn",
            ),
        ];
        for (raw, inputs, name) in &programs {
            let want = raw.run(inputs, SEQ, &mut cache).unwrap().output;
            for level in [OptLevel::None, OptLevel::Standard] {
                let label = format!("{name} / {} / {}", mode.label(), level.label());
                let opt = raw.optimize(level).unwrap();
                assert!(opt.stages() <= raw.stages(), "{label}");

                // Solo executor.
                let got = opt.run(inputs, SEQ, &mut cache).unwrap().output;
                assert_bits_eq(&format!("{label} solo"), got.as_slice(), want.as_slice());

                // BatchEngine: raw and optimized ride in one queue.
                let mut serving =
                    BatchEngine::new(OneSa::new(ArrayConfig::new(8, 16)), 0.25).unwrap();
                serving.submit_program(raw.clone(), inputs.clone()).unwrap();
                serving.submit_program(opt.clone(), inputs.clone()).unwrap();
                let run = serving.run().unwrap();
                assert_bits_eq(
                    &format!("{label} engine/raw"),
                    run.outcomes[0].output.as_slice(),
                    want.as_slice(),
                );
                assert_bits_eq(
                    &format!("{label} engine/opt"),
                    run.outcomes[1].output.as_slice(),
                    want.as_slice(),
                );

                // ServeEngine: optimized program through the async pool.
                let pool =
                    ServeEngine::start(ServeConfig::uniform(2, ArrayConfig::new(8, 16), SEQ))
                        .unwrap();
                let ticket = pool.submit_program(opt.clone(), inputs.clone()).unwrap();
                let served = ticket.wait().unwrap();
                assert_bits_eq(
                    &format!("{label} serve"),
                    served.output.as_slice(),
                    want.as_slice(),
                );
                let summary = pool.finish().unwrap();
                assert_eq!(summary.report.requests, 1, "{label}");
            }
        }
    }
}

/// The optimizer on the quantized CNN: `cse` shares the duplicated
/// residual-skip boundary — a 4% cut (25 → 24 ops) — and nothing else
/// repeats. Recorded in `BENCH_program_optimizer.json`.
#[test]
fn optimizer_cuts_the_quantized_cnn_duplicate_boundary() {
    let (cnn, _, _, _) = models();
    let mode = InferenceMode::cpwl(0.25).unwrap();
    let raw = cnn.compile((&mode, (8, 8))).unwrap();
    let std = raw.optimize(OptLevel::Standard).unwrap();
    assert_eq!(std.opt_report().unwrap().totals.shared, 1);
    assert_eq!((raw.stages(), std.stages()), (25, 24));

    // The serving wrappers run the Standard level: their op counts (and
    // outputs) match the pre-conservative-emission PR-4 graph shape.
    let wrapped = cnn
        .compile_optimized((&mode, (8, 8)), OptLevel::Standard)
        .unwrap();
    assert_eq!(wrapped.stages(), raw.stages() - 1);
}

#[test]
fn program_request_rejected_at_admission_does_not_poison_the_window() {
    let (cnn, _, _, _) = models();
    let mode = InferenceMode::cpwl(0.25).unwrap();
    let mut rng = Pcg32::seed_from_u64(6);
    let pool = ServeEngine::start(ServeConfig::uniform(1, ArrayConfig::new(8, 16), SEQ)).unwrap();
    let program = cnn.compile((&mode, (8, 8))).unwrap();
    // Wrong input shape: rejected by the admitter's input check.
    let bad = pool
        .submit(Request::program(
            program.clone(),
            vec![rng.randn(&[1, 7, 7], 1.0)],
        ))
        .unwrap();
    let x = rng.randn(&[1, 8, 8], 1.0);
    let good = pool.submit_program(program, vec![x.clone()]).unwrap();
    assert!(matches!(
        bad.wait(),
        Err(onesa_core::serve::ServeError::Exec(_))
    ));
    let served = good.wait().unwrap();
    assert_bits_eq(
        "good program",
        served.output.as_slice(),
        &cnn.logits(&x, &mode),
    );
    let summary = pool.finish().unwrap();
    assert_eq!(summary.report.requests, 1);
}

/// `(kernel groups summed over stages, GEMM groups, nonlinear groups,
/// batched (cycles, MACs, nonlinear evaluations))` of a staged group of
/// 1..=4 `Standard`-optimized `SmallCnn::new(11, 3, 10)` programs whose
/// images alternate 32×32 and 16×16, per mode — recorded at the commit
/// before convolution chains ran as one sweep, where `Im2col`, `Gemm` and
/// `Col2im` were three kernels.
type Accounting = (usize, usize, usize, (u64, u64, u64));
const CNN_GOLDEN: [[Accounting; 4]; 2] = [
    [
        (18, 4, 3, (14_940, 1_523_792, 24_576)),
        (29, 4, 3, (18_669, 1_904_800, 30_720)),
        (40, 4, 3, (33_366, 3_428_592, 55_296)),
        (51, 4, 3, (37_095, 3_809_600, 61_440)),
    ],
    [
        (24, 4, 3, (14_940, 1_523_792, 24_576)),
        (41, 4, 3, (18_669, 1_904_800, 30_720)),
        (58, 4, 3, (33_366, 3_428_592, 55_296)),
        (75, 4, 3, (37_095, 3_809_600, 61_440)),
    ],
];

#[test]
fn staged_cnn_convolutions_match_solo_and_direct_runs_with_unchanged_accounting() {
    // The served CNN at both resolutions of the benchmark, staged in mixed
    // groups: its three convolutions run as one sweep per group — unless a
    // member's image carries a NaN. In the exact mode the NaN reaches the
    // first convolution, whose group then runs im2col + GEMM + col2im; the
    // INT16 boundary of the quantized mode zeroes it before that.
    let cnn = SmallCnn::new(11, 3, 10);
    let cfg = ArrayConfig::new(8, 16);
    let mut rng = Pcg32::seed_from_u64(26);
    let images: Vec<Tensor> = [32, 16, 32, 16]
        .iter()
        .map(|&side| rng.randn(&[3, side, side], 1.0))
        .collect();
    let triple = |s: &onesa_sim::ExecStats| (s.cycles(), s.macs, s.nonlinear_evals);
    for (mode, golden) in [InferenceMode::Exact, InferenceMode::cpwl(0.25).unwrap()]
        .iter()
        .zip(CNN_GOLDEN)
    {
        let compile = |side: usize| {
            cnn.compile_optimized((mode, (side, side)), OptLevel::Standard)
                .unwrap()
        };
        let programs = [compile(32), compile(16)];
        for size in 1..=4usize {
            for poisoned in [false, true] {
                let mut xs = images[..size].to_vec();
                if poisoned {
                    xs[size - 1].as_mut_slice()[100] = f32::NAN;
                }
                let jobs: Vec<(&onesa_core::Program, &[Tensor])> = xs
                    .iter()
                    .enumerate()
                    .map(|(i, x)| (&programs[i % 2], std::slice::from_ref(x)))
                    .collect();
                let case = format!("{} x{size} poisoned={poisoned}", mode.label());
                let staged =
                    onesa_core::plan::run_staged(&jobs, &cfg, &mut TableCache::new()).unwrap();
                let groups: usize = staged.stages.iter().map(|s| s.groups).sum();
                let accounting = (
                    groups,
                    staged.gemm_groups,
                    staged.nonlinear_groups,
                    triple(&staged.batched),
                );
                assert_eq!(accounting, golden[size - 1], "{case}");
                // Three convolutions, one sweep each — but the exact
                // mode's NaN sends the first back to the three kernels.
                let exact = matches!(mode, InferenceMode::Exact);
                let sweeps = if poisoned && exact { 2 } else { 3 };
                assert_eq!(staged.conv_sweeps, sweeps, "{case}");
                for (i, (run, job)) in staged.runs.iter().zip(&jobs).enumerate() {
                    let label = format!("{case} #{i}");
                    let alone = onesa_core::plan::run_staged(&[*job], &cfg, &mut TableCache::new())
                        .unwrap();
                    assert_bits_eq(
                        &label,
                        run.output.as_slice(),
                        alone.runs[0].output.as_slice(),
                    );
                    assert_bits_eq(
                        &label,
                        run.output.as_slice(),
                        &cnn.logits_direct(&job.1[0], mode),
                    );
                }
            }
        }
    }
}

/// `(GEMM groups, batched (cycles, MACs, nonlinear evaluations))` of a
/// staged group of 1..=4 `Standard`-optimized GCN programs — the
/// benchmark's model shape and its pruned twin, alternating — each
/// compiled from its own clone of one 120-node graph, in either mode;
/// recorded at the commit before a dataset's clones shared one `Â`, when
/// every program held a copy of its own. One group after the first adds
/// the pruned twin's sparse `X · W₁`; its `Â` products stack beside the
/// others' as columns of one `GemmLeft` group.
const GCN_GOLDEN: [(usize, (u64, u64, u64)); 4] = [
    (4, (5_733, 1_152_960, 7_680)),
    (5, (9_914, 2_275_200, 15_360)),
    (5, (15_135, 3_428_160, 23_040)),
    (5, (19_481, 4_550_400, 30_720)),
];

#[test]
fn staged_gcn_programs_from_graph_clones_match_solo_and_direct_runs() {
    let gcn = Gcn::new(13, 8, 64, 7);
    let mut pruned = gcn.clone();
    pruned.prune_hidden(0.5).unwrap();
    let models = [&gcn, &pruned];
    let base = onesa_data::GraphDataset::generate("t", 7, Difficulty::medium(7), 120, 8, 0.16);
    // Its `Â` multiplies by rows: solo at `n = 64` and `7`, stacked up to
    // `4 · 64`.
    assert!(PackedLhs::pack(&base.a_hat).unwrap().by_rows());
    let mut rng = Pcg32::seed_from_u64(27);
    let graphs: Vec<onesa_data::GraphDataset> = (0..4)
        .map(|_| {
            let mut g = base.clone();
            g.x = rng.randn(&[120, 8], 1.0);
            g
        })
        .collect();
    let cfg = ArrayConfig::new(8, 16);
    let triple = |s: &onesa_sim::ExecStats| (s.cycles(), s.macs, s.nonlinear_evals);
    for mode in &[InferenceMode::Exact, InferenceMode::cpwl(0.25).unwrap()] {
        let programs: Vec<onesa_core::Program> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| {
                models[i % 2]
                    .compile_optimized((mode, g), OptLevel::Standard)
                    .unwrap()
            })
            .collect();
        let direct: Vec<Tensor> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| models[i % 2].logits_direct(g, mode))
            .collect();
        for size in 1..=4usize {
            let jobs: Vec<(&onesa_core::Program, &[Tensor])> = (0..size)
                .map(|i| (&programs[i], std::slice::from_ref(&graphs[i].x)))
                .collect();
            let case = format!("{} x{size}", mode.label());
            let staged = onesa_core::plan::run_staged(&jobs, &cfg, &mut TableCache::new()).unwrap();
            let accounting = (staged.gemm_groups, triple(&staged.batched));
            assert_eq!(accounting, GCN_GOLDEN[size - 1], "{case}");
            for (i, (run, job)) in staged.runs.iter().zip(&jobs).enumerate() {
                let label = format!("{case} #{i}");
                let alone =
                    onesa_core::plan::run_staged(&[*job], &cfg, &mut TableCache::new()).unwrap();
                let output = run.output.as_slice();
                assert_bits_eq(&label, output, alone.runs[0].output.as_slice());
                assert_bits_eq(&label, output, direct[i].as_slice());
            }
        }
    }
}

#[test]
fn one_staged_window_of_every_compiled_program_equals_solo_runs_and_oracles() {
    // Members of very different lengths in one window: intermediates die
    // at different stages, and debug builds hold every planned group
    // key to the key of the resolved operands. Eight decode steps at
    // contexts 2 to 7 share the window with a prefill.
    use onesa_core::plan::{run_staged, Program};
    use onesa_nn::models::TinyCausalLm;
    use onesa_tensor::stats::argmax;
    let lm = TinyCausalLm::new(9, 24, 16, 2, true);
    let cnn = SmallCnn::new(11, 1, 3);
    let bert = TinyBert::new(5, 32, 12, 2, 2);
    let g = onesa_data::GraphDataset::generate("t", 4, Difficulty::easy(3), 20, 6, 0.3);
    let gcn = Gcn::new(6, 6, 32, 3);
    let mut pruned = gcn.clone();
    pruned.prune_hidden(0.5).unwrap();
    let image = Pcg32::seed_from_u64(1).randn(&[1, 8, 8], 1.0);
    let tokens = [3usize, 1, 4, 1, 5, 9, 2, 6];
    let cfg = ArrayConfig::new(8, 16);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for mode in modes() {
        let level = OptLevel::default();
        // (program, inputs, what the model's direct path computes)
        let mut jobs: Vec<(Program, Vec<Tensor>, Vec<f32>)> = vec![
            (
                cnn.compile_optimized((&mode, (8, 8)), level).unwrap(),
                vec![image.clone()],
                cnn.logits_direct(&image, &mode),
            ),
            (
                bert.compile_optimized((&mode, tokens.len()), level)
                    .unwrap(),
                vec![TinyBert::ids_tensor(&tokens)],
                bert.predict_direct(&tokens, &mode),
            ),
            (
                gcn.compile_optimized((&mode, &g), level).unwrap(),
                vec![g.x.clone()],
                gcn.logits_direct(&g, &mode).into_vec(),
            ),
            (
                pruned.compile_optimized((&mode, &g), level).unwrap(),
                vec![g.x.clone()],
                pruned.logits_direct(&g, &mode).into_vec(),
            ),
        ];
        for s in 0..8usize {
            let prompt: Vec<usize> = (0..2 + s % 3).map(|i| (5 * s + 3 * i) % 24).collect();
            let (mut logits, mut kv) = lm.prefill(&prompt, &mode);
            let mut seq = prompt;
            for _ in 0..s % 4 {
                seq.push(argmax(&logits).unwrap());
                (logits, kv) = lm.decode_step(seq[seq.len() - 1], &kv, &mode);
            }
            seq.push(argmax(&logits).unwrap());
            let mut inputs = vec![TinyCausalLm::ids_tensor(&seq[seq.len() - 1..])];
            inputs.extend(kv);
            let step = Program::clone(&lm.compiled_decode(&mode, seq.len() - 1));
            jobs.push((step, inputs, lm.next_logits_direct(&seq, &mode)));
        }
        let prompt = [7usize, 0, 11, 2, 5];
        jobs.push((
            Program::clone(&lm.compiled_prefill(&mode, prompt.len())),
            vec![TinyCausalLm::ids_tensor(&prompt)],
            lm.next_logits_direct(&prompt, &mode),
        ));
        let window: Vec<(&Program, &[Tensor])> = jobs.iter().map(|(p, x, _)| (p, &x[..])).collect();
        let mut cache = TableCache::new();
        let staged = run_staged(&window, &cfg, &mut cache);
        for (i, (run, job)) in staged.unwrap().runs.iter().zip(&window).enumerate() {
            let case = format!("{} member {i}", mode.label());
            let alone = run_staged(&[*job], &cfg, &mut cache);
            let alone = &alone.unwrap().runs[0];
            assert_eq!(
                bits(run.output.as_slice()),
                bits(alone.output.as_slice()),
                "{case}"
            );
            assert_eq!(
                bits(run.output.as_slice()),
                bits(&jobs[i].2),
                "{case}: direct"
            );
            assert_eq!(
                run.session_outputs.len(),
                alone.session_outputs.len(),
                "{case}"
            );
            for (a, b) in run.session_outputs.iter().zip(&alone.session_outputs) {
                assert_eq!(a.dims(), b.dims(), "{case}");
                assert_eq!(bits(a.as_slice()), bits(b.as_slice()), "{case}");
            }
        }
    }
}
