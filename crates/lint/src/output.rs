//! Human and JSON report rendering for the `demodq-lint` binary.

use crate::{json_escape, Code, Report, Verdict};

/// Prints the actionable findings and the gate verdict for humans.
pub fn print_human(report: &Report, verdict: &Verdict) {
    // Only findings in (file, code) groups that exceed the baseline are
    // actionable; print them all (the grandfathered ones give context).
    let over: std::collections::BTreeSet<(&str, Code)> =
        verdict.new.iter().map(|(f, c, _, _)| (f.as_str(), *c)).collect();
    for finding in report.active() {
        if over.contains(&(finding.file.as_str(), finding.code)) {
            println!(
                "{}:{}: {} {}",
                finding.file,
                finding.line,
                finding.code.name(),
                finding.message
            );
        }
    }
    for (file, code, actual, grandfathered) in &verdict.new {
        println!(
            "NEW {file} {}: {actual} finding(s), {grandfathered} baselined",
            code.name()
        );
    }
    for (file, code, actual, grandfathered) in &verdict.stale {
        println!(
            "STALE {file} {}: baseline says {grandfathered}, found {actual} — \
             shrink the baseline (--write-baseline) to lock in the fix",
            code.name()
        );
    }
    let suppressed = report.findings.iter().filter(|f| f.suppressed).count();
    let active = report.active().count();
    println!(
        "demodq-lint: {} file(s), {} active finding(s) ({} suppressed), {} new, {} stale — {}",
        report.files_scanned,
        active,
        suppressed,
        verdict.new.len(),
        verdict.stale.len(),
        if verdict.clean() { "clean" } else { "FAIL" }
    );
}

/// Prints the machine-readable report.
pub fn print_json(report: &Report, verdict: &Verdict) {
    let mut out = String::from("{\n  \"findings\": [\n");
    let active: Vec<_> = report.active().collect();
    for (i, finding) in active.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"code\": \"{}\", \"message\": \"{}\"}}{}\n",
            json_escape(&finding.file),
            finding.line,
            finding.code.name(),
            json_escape(&finding.message),
            if i + 1 < active.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"suppressed\": [\n");
    let suppressed: Vec<_> = report.findings.iter().filter(|f| f.suppressed).collect();
    for (i, finding) in suppressed.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"code\": \"{}\", \"reason\": \"{}\"}}{}\n",
            json_escape(&finding.file),
            finding.line,
            finding.code.name(),
            json_escape(finding.reason.as_deref().unwrap_or("")),
            if i + 1 < suppressed.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"new\": [\n");
    for (i, (file, code, actual, grandfathered)) in verdict.new.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"code\": \"{}\", \"count\": {actual}, \"baselined\": {grandfathered}}}{}\n",
            json_escape(file),
            code.name(),
            if i + 1 < verdict.new.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"stale\": [\n");
    for (i, (file, code, actual, grandfathered)) in verdict.stale.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"code\": \"{}\", \"count\": {actual}, \"baselined\": {grandfathered}}}{}\n",
            json_escape(file),
            code.name(),
            if i + 1 < verdict.stale.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"summary\": {{\"files\": {}, \"active\": {}, \"suppressed\": {}, \"clean\": {}}}\n}}\n",
        report.files_scanned,
        report.active().count(),
        suppressed.len(),
        verdict.clean()
    ));
    print!("{out}");
}
