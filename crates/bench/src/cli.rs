//! Command-line plumbing shared by the report binaries (`soak`,
//! `integrity`, `fleet_soak`, `energy_observatory`): `--flag FILE` pairs
//! naming where to write the report (`--out`, `--csv`) and the telemetry
//! capture (`--trace`, `--flight`, `--metrics`).

use std::process::ExitCode;

use mp_telemetry::{Registry, TelemetrySession};

use crate::report::Report;

/// The report and capture flags of the soak binaries.
pub const SOAK_FLAGS: [&str; 5] = ["--out", "--csv", "--trace", "--flight", "--metrics"];

/// Parsed `--flag FILE` pairs of one binary.
#[derive(Debug)]
pub struct Flags {
    bin: &'static str,
    paths: Vec<(String, String)>,
}

impl Flags {
    /// Parses the process arguments against the flags `bin` accepts.
    /// `--help` prints the usage line.
    ///
    /// # Errors
    ///
    /// The exit code to stop with: success after `--help`, 2 on an
    /// unknown flag or a flag without a path.
    pub fn parse(bin: &'static str, accepted: &[&str]) -> Result<Flags, ExitCode> {
        let mut paths = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            if accepted.contains(&flag.as_str()) {
                let Some(path) = args.next() else {
                    eprintln!("{bin}: {flag} requires a file path");
                    return Err(ExitCode::from(2));
                };
                paths.push((flag, path));
            } else if flag == "--help" || flag == "-h" {
                let usage: Vec<String> = accepted.iter().map(|f| format!("[{f} FILE]")).collect();
                println!("usage: {bin} {}", usage.join(" "));
                return Err(ExitCode::SUCCESS);
            } else {
                eprintln!("{bin}: unknown argument `{flag}` (try --help)");
                return Err(ExitCode::from(2));
            }
        }
        Ok(Flags { bin, paths })
    }

    /// The path given for `flag` (the last one, if repeated).
    pub fn path(&self, flag: &str) -> Option<&str> {
        self.paths
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, p)| p.as_str())
    }

    /// Writes `content()` to the path given for `flag`, if any.
    ///
    /// # Errors
    ///
    /// A failure exit code after reporting the filesystem error.
    pub fn write(
        &self,
        flag: &str,
        what: &str,
        content: impl FnOnce() -> String,
    ) -> Result<(), ExitCode> {
        let Some(path) = self.path(flag) else {
            return Ok(());
        };
        std::fs::write(path, content()).map_err(|e| {
            eprintln!("{}: cannot write {what} to `{path}`: {e}", self.bin);
            ExitCode::FAILURE
        })
    }

    /// Writes the report as text (`--out`) and as CSV (`--csv`).
    ///
    /// # Errors
    ///
    /// As [`Flags::write`].
    pub fn write_report(&self, report: &Report) -> Result<(), ExitCode> {
        self.write("--out", "report", || report.to_string())?;
        self.write("--csv", "CSV", || report.to_csv())
    }

    /// Whether a telemetry capture file was asked for.
    pub fn wants_capture(&self) -> bool {
        ["--trace", "--flight", "--metrics"]
            .iter()
            .any(|f| self.path(f).is_some())
    }

    /// Writes a capture session's Chrome trace (`--trace`, validated
    /// first), flight-recorder report (`--flight`) and metrics registry
    /// (`--metrics`: CSV when the path ends in `.csv`, else a text table).
    ///
    /// # Errors
    ///
    /// As [`Flags::write`], and a failure exit code for an invalid trace.
    pub fn write_capture(
        &self,
        session: &TelemetrySession,
        registry: impl FnOnce() -> Registry,
    ) -> Result<(), ExitCode> {
        let bin = self.bin;
        let streams = session.streams();
        if let Some(path) = self.path("--trace") {
            let json = mp_telemetry::chrome_trace_json(&streams);
            if let Err(e) = mp_telemetry::validate_json(&json) {
                eprintln!("{bin}: generated trace JSON is invalid: {e}");
                return Err(ExitCode::FAILURE);
            }
            self.write("--trace", "trace", || json)?;
            let events: usize = streams.iter().map(|s| s.events.len()).sum();
            eprintln!(
                "{bin}: wrote {events} events across {} streams to `{path}` (open in https://ui.perfetto.dev)",
                streams.len()
            );
        }
        if let Some(path) = self.path("--flight") {
            self.write("--flight", "flight report", || {
                mp_telemetry::flight_report(&streams)
            })?;
            eprintln!(
                "{bin}: wrote flight recorder ({} incidents seen) to `{path}`",
                session.incidents_seen()
            );
        }
        if let Some(path) = self.path("--metrics") {
            let reg = registry();
            self.write("--metrics", "metrics", || {
                if path.ends_with(".csv") {
                    reg.to_csv()
                } else {
                    reg.render_text()
                }
            })?;
            eprintln!("{bin}: wrote {} metrics to `{path}`", reg.len());
        }
        Ok(())
    }
}

/// The process exit code for a binary's result.
pub fn exit_code(result: Result<(), ExitCode>) -> ExitCode {
    result.err().unwrap_or(ExitCode::SUCCESS)
}
