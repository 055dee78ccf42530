//! Telemetry must be strictly observational: a campaign with the full
//! observability stack enabled (registry, flight recorder) must produce
//! bit-identical classifications to a telemetry-disabled campaign with
//! the same `MaskGenerator` seed and `CampaignConfig`.

use gem5_marvel::core::{
    run_campaign, run_dsa_campaign, CampaignConfig, DsaGolden, Golden, TelemetryConfig,
};
use gem5_marvel::cpu::CoreConfig;
use gem5_marvel::ir::assemble;
use gem5_marvel::isa::Isa;
use gem5_marvel::soc::{System, Target};
use gem5_marvel::telemetry::{Registry, SpanCollector};
use gem5_marvel::workloads::{accel, mibench};
use marvel_accel::FuConfig;

fn golden(bench: &str, isa: Isa) -> Golden {
    let bin = assemble(&mibench::build(bench), isa).unwrap();
    let mut sys = System::new(CoreConfig::table2(isa));
    sys.load_binary(&bin);
    Golden::prepare(sys, 80_000_000).unwrap()
}

fn full_telemetry() -> TelemetryConfig {
    TelemetryConfig {
        registry: Registry::new(),
        // Progress printing is wall-clock driven and stderr-only; leave it
        // off in tests but exercise registry + recorder, the two pieces
        // that touch the run path.
        progress_interval_ms: 0,
        flight_capacity: 64,
        taint: false,
        // Span tracing rides along: it must be observational too.
        spans: SpanCollector::enabled(),
    }
}

#[test]
fn cpu_campaign_classifications_invariant_under_telemetry() {
    let g = golden("bitcount", Isa::RiscV);
    for target in [Target::PrfInt, Target::L1D] {
        let plain = CampaignConfig { n_faults: 24, workers: 4, collect_hvf: true, ..Default::default() };
        let instrumented = CampaignConfig { telemetry: full_telemetry(), ..plain.clone() };

        let r1 = run_campaign(&g, target, &plain);
        let r2 = run_campaign(&g, target, &instrumented);

        let e1: Vec<_> = r1.records.iter().map(|r| (r.effect, r.hvf, r.trap, r.cycles)).collect();
        let e2: Vec<_> = r2.records.iter().map(|r| (r.effect, r.hvf, r.trap, r.cycles)).collect();
        assert_eq!(e1, e2, "telemetry perturbed {target:?} classifications");

        // The instrumented run actually recorded something.
        let snap = instrumented.telemetry.registry.snapshot();
        assert!(!snap.counters.is_empty(), "no metrics published");
        let runs = snap.counters.iter().find(|(n, _)| n == "campaign.runs").unwrap().1;
        assert_eq!(runs, 24);
        // Forensics retained exactly for the SDC/Crash runs.
        for r in &r2.records {
            use gem5_marvel::core::FaultEffect;
            assert_eq!(r.forensics.is_some(), r.effect != FaultEffect::Masked, "forensics retention");
        }
    }
}

#[test]
fn repeated_instrumented_campaigns_are_identical() {
    // Same seed + config with telemetry enabled twice: tallies must match
    // run-for-run (worker scheduling must not leak into results).
    let g = golden("crc32", Isa::Arm);
    let cc1 =
        CampaignConfig { n_faults: 16, workers: 3, telemetry: full_telemetry(), ..Default::default() };
    let cc2 =
        CampaignConfig { n_faults: 16, workers: 3, telemetry: full_telemetry(), ..Default::default() };
    let r1 = run_campaign(&g, Target::L1D, &cc1);
    let r2 = run_campaign(&g, Target::L1D, &cc2);
    let e1: Vec<_> = r1.records.iter().map(|r| (r.effect, r.cycles)).collect();
    let e2: Vec<_> = r2.records.iter().map(|r| (r.effect, r.cycles)).collect();
    assert_eq!(e1, e2);
    // Effect-class tallies in the registries agree too.
    let tally = |reg: &Registry, name: &str| {
        reg.snapshot().counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0)
    };
    for name in ["campaign.sdc", "campaign.crash", "campaign.masked", "campaign.early_terminated"] {
        assert_eq!(
            tally(&cc1.telemetry.registry, name),
            tally(&cc2.telemetry.registry, name),
            "{name} tally diverged between identical campaigns"
        );
    }
}

#[test]
fn dsa_campaign_classifications_invariant_under_telemetry() {
    let d = accel::designs().into_iter().find(|d| d.name == "FFT").expect("FFT design");
    let golden = DsaGolden::prepare((d.make)(FuConfig::uniform(4)), 100_000_000);
    let target = d.components[0].target;

    let plain = CampaignConfig { n_faults: 20, workers: 4, ..Default::default() };
    let instrumented = CampaignConfig { telemetry: full_telemetry(), ..plain.clone() };
    let r1 = run_dsa_campaign(&golden, target, &plain);
    let r2 = run_dsa_campaign(&golden, target, &instrumented);

    let e1: Vec<_> = r1.records.iter().map(|r| (r.effect, r.trap, r.cycles)).collect();
    let e2: Vec<_> = r2.records.iter().map(|r| (r.effect, r.trap, r.cycles)).collect();
    assert_eq!(e1, e2, "telemetry perturbed DSA classifications");

    let snap = instrumented.telemetry.registry.snapshot();
    let runs = snap.counters.iter().find(|(n, _)| n == "dsa.runs").unwrap().1;
    assert_eq!(runs, 20);
}

/// The issue stage's parking counters reach the registry through
/// `Core::publish_metrics` (the golden checkpoint's core, published by
/// campaign preparation), show loads actually parking on golden sha, and
/// read the same at any worker count.
#[test]
fn issue_park_counters_are_published_and_worker_invariant() {
    use gem5_marvel::serve::{CampaignSpec, Prepared};
    let counters = |workers: usize| {
        let spec = CampaignSpec::parse(&format!(
            r#"{{"type":"campaign_spec","schema_version":1,"id":"park-w{workers}",
                "workload":{{"kind":"cpu","bench":"sha","isa":"riscv"}},
                "faults":16,"workers":{workers}}}"#
        ))
        .unwrap();
        let registry = Registry::new();
        let cc = spec.to_config(TelemetryConfig { registry: registry.clone(), ..Default::default() });
        let prepared = Prepared::new(&spec, &cc).unwrap();
        prepared.drive(&cc, &vec![false; prepared.masks.len()], None, &|_, _| {});
        registry
            .snapshot()
            .counters
            .into_iter()
            .filter(|(name, _)| name.contains(".issue."))
            .collect::<Vec<_>>()
    };
    let one = counters(1);
    let get = |leaf: &str| {
        one.iter().find(|(n, _)| n.ends_with(leaf)).unwrap_or_else(|| panic!("{leaf} not published")).1
    };
    assert!(get("issue.park_skips") > 0, "no parked-load skips on golden sha: {one:?}");
    assert!(get("issue.unpark_store_addr") > 0, "parked loads never released by a store: {one:?}");
    for leaf in ["unpark_reg_rewrite", "unpark_external", "unpark_prf_guard", "unpark_lane_guard"] {
        get(leaf);
    }
    assert_eq!(one, counters(2), "park counters depend on the worker count");
}
