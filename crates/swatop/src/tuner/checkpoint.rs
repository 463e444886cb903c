//! Checkpoint/resume for long tuning sweeps.
//!
//! A full operator sweep on real hardware takes long enough that losing a
//! run to a node reclaim is expensive, so the tuning engine periodically
//! serializes its partial per-candidate state ([`CandCell`]s) to a small
//! JSON file and can resume from it. The file is written and read through
//! [`sw26010::json`], like every other artifact, and versioned behind a
//! fingerprint of the tuning context, so a checkpoint from a different
//! candidate space, machine config or fault plan is detected and ignored
//! rather than silently corrupting the search.
//!
//! On-disk shape (one line):
//!
//! ```json
//! {"v":1,"fp":1234,"cells":[null,{"c":99,"r":0,"m":3},{"e":"msg","r":2}]}
//! ```
//!
//! `null` = not yet measured, `{"c","r","m"}` = measured (cycles, retries,
//! samples), `{"e","r"}` = failed (error, retries). Writes are atomic
//! (tempfile + rename), so a sweep killed mid-write leaves the previous
//! checkpoint intact.

use std::fs;
use std::path::Path;

use sw26010::json::{self, Json, Writer};
use sw26010::{Cycles, MachineConfig};

/// Bumped when the on-disk shape changes; mixed into the fingerprint.
pub const FORMAT_VERSION: u64 = 1;

/// Per-candidate measurement state, the unit the engine checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CandCell {
    /// Not measured yet.
    Pending,
    /// Measured: the (median) observed cycles, transient-failure retries
    /// consumed, and successful samples taken.
    Done { cycles: u64, retries: u32, samples: u32 },
    /// Terminally failed with an error message, after `retries` retries.
    Failed { error: String, retries: u32 },
}

impl CandCell {
    pub fn is_pending(&self) -> bool {
        matches!(self, CandCell::Pending)
    }

    /// Observed cycles, when measured.
    pub fn cycles(&self) -> Option<Cycles> {
        match self {
            CandCell::Done { cycles, .. } => Some(Cycles(*cycles)),
            _ => None,
        }
    }

    /// Retries consumed measuring this candidate.
    pub fn retries(&self) -> u32 {
        match self {
            CandCell::Pending => 0,
            CandCell::Done { retries, .. } | CandCell::Failed { retries, .. } => *retries,
        }
    }
}

/// A parsed checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    pub fingerprint: u64,
    pub cells: Vec<CandCell>,
}

/// FNV-1a fingerprint of the tuning context a checkpoint belongs to: the
/// candidate count plus every machine parameter that shapes measured cycles
/// or injected faults. Stable across processes (no hasher randomization),
/// which `std::hash` does not guarantee.
pub fn fingerprint(cfg: &MachineConfig, n_candidates: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(FORMAT_VERSION);
    eat(n_candidates as u64);
    eat(cfg.spm_bytes as u64);
    eat(cfg.dram_transaction_bytes as u64);
    eat(cfg.mem_bytes_per_cycle.to_bits());
    eat(cfg.dma_startup.get());
    eat(cfg.dma_block_overhead.get());
    eat(cfg.dma_issue_cost.get());
    eat(cfg.dma_wait_poll.get());
    eat(cfg.vmad_latency);
    eat(cfg.vldd_latency);
    eat(cfg.bcast_latency);
    eat(cfg.vstd_latency);
    eat(cfg.regcomm_switch.get());
    eat(cfg.kernel_call_overhead.get());
    eat(cfg.kernel_launch.get());
    eat(cfg.kernel_signal.get());
    match cfg.fault {
        None => eat(0),
        Some(p) => {
            eat(1);
            eat(p.seed);
            eat(u64::from(p.dma_fail_ppm));
            eat(u64::from(p.spm_pressure_ppm));
            eat(u64::from(p.spm_steal_max_permille));
            eat(u64::from(p.jitter_permille));
        }
    }
    h
}

/// Render a checkpoint as its JSON line.
pub fn render(fingerprint: u64, cells: &[CandCell]) -> String {
    let mut w = Writer::new();
    w.begin_obj().field("v", FORMAT_VERSION).field("fp", fingerprint).key("cells").begin_arr();
    for c in cells {
        match c {
            CandCell::Pending => w.value(None::<u64>),
            CandCell::Done { cycles, retries, samples } => {
                w.begin_obj().field("c", cycles).field("r", retries).field("m", samples).end_obj()
            }
            CandCell::Failed { error, retries } => {
                w.begin_obj().field("e", error).field("r", retries).end_obj()
            }
        };
    }
    w.end_arr().end_obj();
    w.finish() + "\n"
}

/// Atomically write a checkpoint: render to `<path>.tmp`, then rename over
/// `path`, so an interrupted write never clobbers the previous state.
pub fn save(path: &Path, fingerprint: u64, cells: &[CandCell]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    fs::write(&tmp, render(fingerprint, cells))?;
    fs::rename(&tmp, path)
}

/// Load and parse a checkpoint file.
pub fn load(path: &Path) -> Result<Checkpoint, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse(&text)
}

/// Parse a checkpoint from its JSON text. Keys may come in any order; a
/// truncated or hand-edited file is reported, not trusted.
pub fn parse(text: &str) -> Result<Checkpoint, String> {
    let top = json::parse(text)?;
    let version = top.field("v")?.as_u64("v")?;
    if version != FORMAT_VERSION {
        return Err(format!("unsupported checkpoint version {version}"));
    }
    let fingerprint = top.field("fp")?.as_u64("fp")?;
    let cells =
        top.field("cells")?.as_arr("cells")?.iter().map(cell_of).collect::<Result<Vec<_>, _>>()?;
    Ok(Checkpoint { fingerprint, cells })
}

fn cell_of(v: &Json) -> Result<CandCell, String> {
    let small = |key: &str| -> Result<u32, String> {
        let n = v.field(key)?.as_u64(key)?;
        u32::try_from(n).map_err(|_| format!("{key}: {n} does not fit u32"))
    };
    match v {
        Json::Null => Ok(CandCell::Pending),
        Json::Obj(_) => {
            let retries = small("r")?;
            if let Some(e) = v.get("e") {
                Ok(CandCell::Failed { error: e.as_str("e")?.to_string(), retries })
            } else {
                let cycles = v.field("c")?.as_u64("c")?;
                Ok(CandCell::Done { cycles, retries, samples: small("m")? })
            }
        }
        _ => Err("cell must be null or an object".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells() -> Vec<CandCell> {
        vec![
            CandCell::Pending,
            CandCell::Done { cycles: 123_456, retries: 2, samples: 3 },
            CandCell::Failed { error: "bad kernel arguments: \"q\"\n\\x".into(), retries: 7 },
            CandCell::Done { cycles: u64::MAX, retries: 0, samples: 1 },
        ]
    }

    #[test]
    fn round_trip_preserves_cells() {
        let text = render(0xDEAD_BEEF, &cells());
        let ck = parse(&text).unwrap();
        assert_eq!(ck.fingerprint, 0xDEAD_BEEF);
        assert_eq!(ck.cells, cells());
    }

    #[test]
    fn round_trip_preserves_unicode_and_control_chars() {
        let cells = vec![CandCell::Failed {
            error: "injecté \u{1F600} \u{1} tab\there".into(),
            retries: 1,
        }];
        assert_eq!(parse(&render(1, &cells)).unwrap().cells, cells);
    }

    #[test]
    fn save_and_load_are_atomic_and_consistent() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("swatop_ck_test_{}.json", std::process::id()));
        save(&path, 42, &cells()).unwrap();
        let ck = load(&path).unwrap();
        assert_eq!(ck, Checkpoint { fingerprint: 42, cells: cells() });
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncated_or_garbage_input_is_rejected() {
        let text = render(7, &cells());
        assert!(parse(&text[..text.len() / 2]).is_err(), "truncated file must not parse");
        assert!(parse("not json").is_err());
        assert!(parse("{\"v\":99,\"fp\":0,\"cells\":[]}").is_err(), "future version rejected");
        assert!(parse("").is_err());
        assert!(parse("[]").is_err(), "not an object");
        assert!(parse("{\"v\":1,\"fp\":-1,\"cells\":[]}").is_err(), "signed fingerprint");
        assert!(parse("{\"v\":1,\"fp\":0,\"cells\":[true]}").is_err(), "null or an object");
        // Counters that do not fit their field are reported, not wrapped.
        let cell = |c: &str| parse(&["{\"v\":1,\"fp\":0,\"cells\":[", c, "]}"].concat());
        let fits = cell("{\"c\":1,\"r\":4294967295,\"m\":1}").unwrap();
        assert_eq!(fits.cells[0].retries(), u32::MAX);
        assert_eq!(
            cell("{\"c\":1,\"r\":4294967296,\"m\":1}").unwrap_err(),
            "r: 4294967296 does not fit u32"
        );
        assert_eq!(
            cell("{\"c\":1,\"r\":0,\"m\":4294967296}").unwrap_err(),
            "m: 4294967296 does not fit u32"
        );
        assert!(cell("{\"e\":\"x\",\"r\":4294967296}").is_err());
    }

    #[test]
    fn fingerprint_tracks_space_config_and_faults() {
        let cfg = MachineConfig::default();
        let base = fingerprint(&cfg, 100);
        assert_eq!(base, fingerprint(&cfg, 100), "fingerprint must be stable");
        assert_ne!(base, fingerprint(&cfg, 101), "candidate count must matter");
        let mut faulty = cfg.clone();
        faulty.fault = Some(sw26010::FaultPlan::with_seed(1));
        assert_ne!(base, fingerprint(&faulty, 100), "fault plan must matter");
        let mut other = faulty.clone();
        other.fault = Some(sw26010::FaultPlan::with_seed(2));
        assert_ne!(fingerprint(&faulty, 100), fingerprint(&other, 100));
    }
}
