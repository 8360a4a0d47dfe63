//! The run manifest: the host and build facts that decide whether two
//! runs are comparable.

/// Host and build metadata of one run.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Logical CPUs the process may use.
    pub nproc: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// Effective rustflags of the build (from `CARGO_ENCODED_RUSTFLAGS`).
    pub rustflags: String,
    /// Commit of the measured sources, read at build time (`unknown`
    /// outside a git checkout).
    pub commit: String,
    /// Worker threads the workloads fan out over.
    pub threads: usize,
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: u64,
    /// Whether per-layer tracing was on.
    pub trace: bool,
}

impl Manifest {
    /// Collects the manifest for a run.
    pub fn collect(workload: &str, seed: u64, seconds: u64, trace: bool, threads: usize) -> Self {
        Manifest {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            rustc: env!("E2E_RUSTC_VERSION").to_string(),
            rustflags: env!("E2E_RUSTFLAGS").to_string(),
            commit: env!("E2E_COMMIT").to_string(),
            threads,
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
        }
    }

    /// One-line JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"rustflags\": {}, \"commit\": {}, \
             \"threads\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
            self.nproc,
            quote(&self.cpu),
            quote(&self.rustc),
            quote(&self.rustflags),
            quote(&self.commit),
            self.threads,
            quote(&self.workload),
            self.seed,
            self.seconds,
            self.trace
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
