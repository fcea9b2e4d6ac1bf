//! The correctness check: every grid's records, serialized with
//! `to_csv`, must equal byte for byte those of a cold,
//! checkpoint-forking-off, one-worker run of the same grid. The check
//! compares FNV-1a 64 digests of the two texts.
//!
//! For the default seed the reference digests are stored in
//! `reference.txt`. For any other seed a child process — this program
//! with `--references` — computes them during set-up, so that neither
//! their time nor their memory lands in the measured process.

use ftsim::harness::{to_csv, Experiment};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Stored digests of the default seed's reference records, one line per
/// grid: `<grid name> <16 hex digits>`.
const STORED: &str = include_str!("../reference.txt");

/// The digest a grid's records must have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference(u64);

impl Reference {
    /// Whether `csv` is byte-identical to the reference text.
    pub fn matches(&self, csv: &str) -> bool {
        self.0 == fnv1a(csv.as_bytes())
    }
}

/// The references of the grids `names` of `workload` at `seed`: stored
/// ones for the default seed, else computed by a child process.
pub fn references(workload: &str, seed: u64, names: &[String]) -> Result<Vec<Reference>, String> {
    let computed;
    let lines = if seed == crate::DEFAULT_SEED {
        STORED
    } else {
        let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
        let out = Command::new(exe)
            .args([
                "--references",
                "--workload",
                workload,
                "--seed",
                &seed.to_string(),
            ])
            .output()
            .map_err(|e| format!("starting the reference run: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "reference run failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        computed = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
        &computed
    };
    names
        .iter()
        .map(|name| lookup(lines, name).ok_or_else(|| format!("no reference for grid `{name}`")))
        .collect()
}

fn lookup(lines: &str, name: &str) -> Option<Reference> {
    lines.lines().find_map(|line| {
        let (grid, hex) = line.split_once(' ')?;
        (grid == name).then(|| u64::from_str_radix(hex.trim(), 16).ok().map(Reference))?
    })
}

/// Reference lines (`<grid> <digest>`) for named grids, computed two
/// grids at a time, each by a one-worker cold run.
pub fn reference_lines(grids: &[(String, Experiment)]) -> Result<Vec<String>, String> {
    let slots: Vec<Mutex<Option<Result<String, String>>>> =
        grids.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((name, exp)) = grids.get(i) else {
                    break;
                };
                let line =
                    cold_csv(exp).map(|csv| format!("{name} {:016x}", fnv1a(csv.as_bytes())));
                *slots[i].lock().expect("reference slot") = Some(line);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("reference slot")
                .expect("every grid ran")
        })
        .collect()
}

/// Records of a cold, forking-off, single-worker run of `exp`, as CSV.
fn cold_csv(exp: &Experiment) -> Result<String, String> {
    let records = exp
        .clone()
        .checkpointing(false)
        .threads(1)
        .run()
        .map_err(|e| e.to_string())?;
    Ok(to_csv(&records))
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsim::core::{MachineConfig, OracleMode};
    use ftsim::harness::from_csv;
    use ftsim::workloads::profile;

    fn tiny() -> Experiment {
        Experiment::grid()
            .workloads([profile("gcc").unwrap()])
            .models([MachineConfig::ss2()])
            .fault_rates([0.0, 5_000.0])
            .budget(1_000)
            .seeds([3])
            .oracle(OracleMode::Final)
            .threads(1)
    }

    #[test]
    fn a_record_with_one_field_perturbed_is_rejected() {
        let exp = tiny();
        let csv = cold_csv(&exp).unwrap();
        let forked = to_csv(&exp.clone().checkpointing(true).run().unwrap());
        let line = reference_lines(&[("tiny".to_string(), exp)])
            .unwrap()
            .join("\n");
        let r = lookup(&line, "tiny").unwrap();
        assert!(r.matches(&csv));
        assert!(r.matches(&forked), "forking must not change a record");

        let mut records = from_csv(&csv).unwrap();
        records[1].cycles += 1;
        let perturbed = to_csv(&records);
        let mut records = from_csv(&csv).unwrap();
        records[0].faults_detected ^= 1;
        let flipped = to_csv(&records);
        assert!(!r.matches(&perturbed));
        assert!(!r.matches(&flipped));
    }

    #[test]
    fn stored_digests_parse() {
        for line in STORED.lines() {
            let (name, _) = line.split_once(' ').expect("`<grid> <digest>`");
            assert!(lookup(STORED, name).is_some(), "{line}");
        }
        assert_eq!(lookup(STORED, "no-such-grid"), None);
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
