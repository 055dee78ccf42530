//! Cycle-exact pins of the out-of-order core's timing.
//!
//! The byte-identity differentials compare a fast path against an oracle
//! configuration of the *same* core, so a change that shifts core timing
//! (an issue-stage shortcut that issues a load one cycle late, say) moves
//! oracle and fast path together and slips through. These pins hold the
//! core itself to recorded values instead:
//!
//! * every golden run (3 ISAs × sha/crc32/qsort/dijkstra) keeps its cycle
//!   count, commit trace, console output and every `CoreStats` counter;
//! * a 48-fault campaign on every CPU target, under both fault models and
//!   both the scalar (lane width 0) and lane-packed (64) engines, keeps
//!   its `records.csv` digest. The LQ/SQ/ROB/rename cells are the ones a
//!   stale issue-stage shortcut would move.
//!
//! A speed-only change to the core must leave every pin untouched. On a
//! mismatch the assertion prints the full table as measured, so a change
//! that *means* to alter timing can re-pin by pasting it.

use gem5_marvel::core::{run_campaign, CampaignConfig, FaultKind, Golden};
use gem5_marvel::cpu::{CommitRecord, CoreConfig};
use gem5_marvel::ir::assemble;
use gem5_marvel::isa::Isa;
use gem5_marvel::serve::render_records_csv;
use gem5_marvel::soc::{System, Target};
use gem5_marvel::workloads::mibench;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn golden(bench: &str, isa: Isa) -> Golden {
    let bin = assemble(&mibench::build(bench), isa).unwrap();
    let mut sys = System::new(CoreConfig::table2(isa));
    sys.load_binary(&bin);
    Golden::prepare(sys, 80_000_000).unwrap()
}

fn trace_digest(trace: &[CommitRecord]) -> u64 {
    let mut bytes = Vec::with_capacity(trace.len() * 25);
    for r in trace {
        bytes.extend_from_slice(&r.pc.to_le_bytes());
        bytes.push(r.kind);
        bytes.extend_from_slice(&r.result.to_le_bytes());
        bytes.extend_from_slice(&r.addr.to_le_bytes());
    }
    fnv64(&bytes)
}

fn golden_line(bench: &str, isa: Isa) -> String {
    let g = golden(bench, isa);
    let s = &g.stats;
    format!(
        "{isa:?} {bench} exec={} ckpt={} trace={}/{:016x} out={}/{:016x} \
         stats={},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        g.exec_cycles,
        g.ckpt_cycle,
        g.trace.len(),
        trace_digest(&g.trace),
        g.output.len(),
        fnv64(&g.output),
        s.cycles,
        s.committed_uops,
        s.committed_macros,
        s.loads,
        s.stores,
        s.branches,
        s.mispredicts,
        s.lq_occ_accum,
        s.sq_occ_accum,
        s.rob_occ_accum,
        s.iq_occ_accum,
        s.freelist_free_accum,
        s.flushes,
        s.replays,
    )
}

const GOLDEN_PINS: &str = "\
RiscV sha exec=248688 ckpt=23418 trace=235615/34fc3cf3999dacd8 out=8/5f7d0b8f5bcbaa94 stats=272106,251010,251010,56902,49435,2661,100,6728366,5605758,25460918,15573245,8699083,376,276
RiscV crc32 exec=315935 ckpt=22960 trace=209569/7a71191807361543 out=8/e1014eb5c26f952e stats=338895,271044,271044,70691,52287,7684,5,9078736,7057038,30973593,21214604,12056444,108,103
RiscV qsort exec=148409 ckpt=8961 trace=295610/5f7baeb02ff56ad5 out=8/b95b37fbb61c561a stats=157370,307163,307163,44213,34560,57407,6578,1491062,733092,10322204,6238535,9843051,6579,1
RiscV dijkstra exec=146755 ckpt=37836 trace=99669/7a2a3bb248bb6903 out=8/1c574ce7c7bdfbd5 stats=184591,116168,116168,40580,23064,11915,1397,4607257,2570179,12771140,11098691,11487951,1500,103
Arm sha exec=226802 ckpt=7626 trace=201725/f39599dd801fa36d out=8/5f7d0b8f5bcbaa94 stats=234428,210981,210981,52806,46366,2646,99,6243037,5302223,22387093,13655691,6614997,371,272
Arm crc32 exec=295923 ckpt=18956 trace=190104/69fa5bd1eb9003c7 out=8/e1014eb5c26f952e stats=314879,233154,233154,69155,50754,7684,5,9221439,7038745,28999634,19560890,10629191,102,97
Arm qsort exec=145135 ckpt=8407 trace=247115/4ab056b88fec6c80 out=8/b95b37fbb61c561a stats=153542,257388,257388,44213,34560,57407,6578,1764138,1023111,10899809,5465693,9523929,6580,2
Arm dijkstra exec=139052 ckpt=26847 trace=90064/cf550c4ca0f346c2 out=8/1c574ce7c7bdfbd5 stats=165899,102649,102649,37892,22196,11915,1397,4274080,2479758,11351171,9916995,10379395,1497,100
X86 sha exec=347956 ckpt=47784 trace=236720/d1b7d123ec8f6898 out=8/5f7d0b8f5bcbaa94 stats=395740,262350,262347,74309,54283,2646,99,8896056,6261254,30372895,24986682,21113116,410,311
X86 crc32 exec=361137 ckpt=205822 trace=245959/96d7e94d6edc1bd2 out=8/e1014eb5c26f952e stats=566959,375012,375009,98342,79927,7684,5,11734327,9372298,43931431,36151015,32290820,115,110
X86 qsort exec=336464 ckpt=11055 trace=443431/e79472ea78e72565 out=8/b95b37fbb61c561a stats=347519,461378,457115,62223,52560,57407,6586,3724654,2815916,28713269,18851562,16498601,6591,5
X86 dijkstra exec=162073 ckpt=40956 trace=124804/865efeee221644de out=8/1c574ce7c7bdfbd5 stats=203029,144433,144430,43912,23709,11915,1397,4508515,2385538,14386460,12193822,12580432,1533,136
";

#[test]
fn golden_runs_are_cycle_exact() {
    let mut got = String::new();
    for isa in [Isa::RiscV, Isa::Arm, Isa::X86] {
        for bench in ["sha", "crc32", "qsort", "dijkstra"] {
            got.push_str(&golden_line(bench, isa));
            got.push('\n');
        }
    }
    assert_eq!(got, GOLDEN_PINS, "golden pins moved; measured table:\n{got}");
}

const CAMPAIGN_TARGETS: [(&str, Target); 9] = [
    ("prf", Target::PrfInt),
    ("prf-fp", Target::PrfFp),
    ("l1i", Target::L1I),
    ("l1d", Target::L1D),
    ("l2", Target::L2),
    ("lq", Target::LoadQueue),
    ("sq", Target::StoreQueue),
    ("rob", Target::Rob),
    ("rename", Target::RenameMap),
];

const CAMPAIGN_PINS: &str = "\
prf-t-w0 eeb5ab53165f392f
prf-t-w64 eeb5ab53165f392f
prf-p-w0 d0cf9b8b125d2927
prf-p-w64 d0cf9b8b125d2927
prf-fp-t-w0 93218e44c5f1905a
prf-fp-t-w64 93218e44c5f1905a
prf-fp-p-w0 93218e44c5f1905a
prf-fp-p-w64 93218e44c5f1905a
l1i-t-w0 8ba8e006c88fc513
l1i-t-w64 8ba8e006c88fc513
l1i-p-w0 8a0733c2a75e4c18
l1i-p-w64 8a0733c2a75e4c18
l1d-t-w0 12185eebf202745e
l1d-t-w64 12185eebf202745e
l1d-p-w0 5e0be85fe9b93046
l1d-p-w64 5e0be85fe9b93046
l2-t-w0 694f0a7daa41926f
l2-t-w64 694f0a7daa41926f
l2-p-w0 8a0733c2a75e4c18
l2-p-w64 8a0733c2a75e4c18
lq-t-w0 93218e44c5f1905a
lq-t-w64 93218e44c5f1905a
lq-p-w0 93218e44c5f1905a
lq-p-w64 93218e44c5f1905a
sq-t-w0 0fd92f6add74e902
sq-t-w64 0fd92f6add74e902
sq-p-w0 93218e44c5f1905a
sq-p-w64 93218e44c5f1905a
rob-t-w0 50929c210ee28a5b
rob-t-w64 50929c210ee28a5b
rob-p-w0 eaae4a4e69dccd85
rob-p-w64 eaae4a4e69dccd85
rename-t-w0 18be472fcb091d85
rename-t-w64 18be472fcb091d85
rename-p-w0 e3f313e6d04e939f
rename-p-w64 e3f313e6d04e939f
";

/// 48-fault campaigns on dijkstra/RISC-V (short, and its loads block
/// behind unresolved stores on most cycles) with the spec defaults: an
/// 8-rung ladder, early termination on, plus HVF so the commit stream is
/// compared too.
#[test]
fn campaign_records_are_pinned() {
    let g = golden("dijkstra", Isa::RiscV);
    let mut got = String::new();
    for (name, target) in CAMPAIGN_TARGETS {
        for (kind_name, kind) in [("t", FaultKind::Transient), ("p", FaultKind::Permanent)] {
            for lane_width in [0usize, 64] {
                let cc = CampaignConfig {
                    n_faults: 48,
                    kind,
                    workers: 2,
                    ladder_rungs: 8,
                    collect_hvf: true,
                    lane_width,
                    ..Default::default()
                };
                let res = run_campaign(&g, target, &cc);
                let csv = render_records_csv(&res.records);
                got.push_str(&format!(
                    "{name}-{kind_name}-w{lane_width} {:016x}\n",
                    fnv64(csv.as_bytes())
                ));
            }
        }
    }
    assert_eq!(got, CAMPAIGN_PINS, "campaign pins moved; measured table:\n{got}");
}
