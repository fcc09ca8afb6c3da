//! The run's metrics, its human-readable table and its JSON result line.

use crate::stats::Samples;
use seu_obs::json;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile.
    pub samples: Option<usize>,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Requests the timed stream attempted.
    pub attempted: u64,
    /// Requests that failed: errors, degraded replies and correctness
    /// mismatches.
    pub failed: u64,
    /// Correctness mismatches among them.
    pub mismatches: u64,
    /// Extra lines for the human-readable report (span tables, notes).
    pub notes: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.add_counted(name, value, unit, None);
    }

    /// A metric with the number of samples behind it.
    pub fn add_counted(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// One percentile metric, with its sample count.
    pub fn add_pct(&mut self, name: &str, samples: &Samples, q: f64, unit: &'static str) {
        self.add_counted(name, samples.percentile(q), unit, Some(samples.len()));
    }

    /// `<base>.p50` and `<base>.p99` of a per-layer timing.
    pub fn add_timing(&mut self, base: &str, samples: &Samples, unit: &'static str) {
        self.add_pct(&format!("{base}.p50"), samples, 50.0, unit);
        self.add_pct(&format!("{base}.p99"), samples, 99.0, unit);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }

    /// Prints the table, then the JSON result as the last stdout line.
    pub fn print(&self, workload: &str) {
        println!("# perfbench {workload}");
        for line in &self.notes {
            println!("# {line}");
        }
        for m in &self.metrics {
            let n = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            println!("{:<42} {:>16.6} {}{n}", m.name, m.value, m.unit);
        }
        println!(
            "attempted={} failed={} fail_ratio={:.6} mismatches={}",
            self.attempted,
            self.failed,
            crate::stats::ratio(self.failed as f64, self.attempted as f64),
            self.mismatches
        );
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_escaped(&mut out, &m.name);
            out.push_str(":{\"value\":");
            json::write_num(&mut out, m.value);
            out.push_str(",\"unit\":");
            json::write_escaped(&mut out, m.unit);
            out.push('}');
        }
        out.push_str("}}");
        println!("{out}");
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A snapshot of the process-global counters, for deltas around a
/// window.
pub struct Counters(std::collections::BTreeMap<String, u64>);

impl Counters {
    pub fn now() -> Counters {
        Counters(seu_obs::global().snapshot().counters.into_iter().collect())
    }

    /// How much `name` grew since `self`.
    pub fn delta(&self, later: &Counters, name: &str) -> f64 {
        let before = self.0.get(name).copied().unwrap_or(0);
        let after = later.0.get(name).copied().unwrap_or(0);
        after.saturating_sub(before) as f64
    }
}
