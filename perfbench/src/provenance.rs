//! Host and build provenance recorded beside every result. The CPU is
//! identified through CPUID, so no file outside the checkout is read.

/// One JSON object: nproc, CPU model, ISA flags, commit, rustc, profile.
pub fn json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": \"{}\", \"isa\": \"{}\", \"commit\": \"{}\", \
         \"rustc\": \"{}\", \"profile\": \"{}\"}}",
        cpu_model().replace(['"', '\\'], "'"),
        isa().join(","),
        commit(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    )
}

/// The processor brand string.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaf 0x8000_0000 reports the highest extended leaf, checked
    // before the brand-string leaves are read.
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

/// The FMA and vector extensions the dense kernels could use.
fn isa() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        [
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ]
        .into_iter()
        .filter_map(|(name, has)| has.then_some(name))
        .collect()
    }
    #[cfg(not(target_arch = "x86_64"))]
    Vec::new()
}

/// The checked-out commit, read at run time so an incremental build
/// never reports a stale one; unknown outside a git checkout.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}
