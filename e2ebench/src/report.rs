//! Named metrics, the printed tables and the result line.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (0 when it is not a sample statistic).
    pub samples: u64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Free-form lines printed after the tables (the ledger, notes).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            ..Report::default()
        }
    }

    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.end_to_end.push(metric(name, unit, value, samples));
    }

    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.per_layer.push(metric(name, unit, value, samples));
    }

    pub fn problem(&mut self, message: String) {
        eprintln!("check failed [{}]: {message}", self.workload);
        self.problems.push(message);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The human-readable table of this run.
    pub fn print(&self) {
        println!("== {} ==", self.workload);
        for (title, metrics) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ] {
            if metrics.is_empty() {
                continue;
            }
            println!("-- {title} --");
            for m in metrics {
                let samples = if m.samples > 0 {
                    format!("  (n={})", m.samples)
                } else {
                    String::new()
                };
                println!("{:<40} {:>16.4} {:<8}{samples}", m.name, m.value, m.unit);
            }
        }
        for line in &self.notes {
            println!("{line}");
        }
        println!(
            "attempted {}  failed {}  correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
    }
}

fn metric(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        samples: samples as u64,
    }
}

/// The one-line JSON result. With several reports the metric names are
/// prefixed by their workload.
pub fn result_line(reports: &[Report], traced: bool) -> String {
    let prefix = reports.len() > 1;
    let mut metrics = String::new();
    for report in reports {
        let list = if traced {
            &report.per_layer
        } else {
            &report.end_to_end
        };
        for m in list {
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let name = if prefix {
                format!("{}.{}", report.workload, m.name)
            } else {
                m.name.clone()
            };
            // JSON has no NaN or infinity; a metric that could not be
            // measured reads 0.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            );
        }
    }
    let correct = reports.iter().all(Report::correct);
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        attempted.max(1)
    )
}
