//! Output checks for sweep reports.
//!
//! A sweep's canonical report is checked against digests captured from
//! a serial, uncached run of the same spec (`perfbench
//! --capture-digests`, committed as `digests.txt`). The report is cut
//! into one block per design; each block's digest covers its point
//! objects with the position-dependent `index` field stripped, so a
//! seed that rotates the design order still checks against the same
//! digests, while the indices themselves are checked to run 0, 1, 2, …
//! in order. A block that does not match counts all of its points as
//! failed.
//!
//! The digests come from the code under test: they guard against
//! regression, they are not an independent oracle.

use std::collections::BTreeMap;

use crate::stats::{fnv1a, FNV_OFFSET};

/// The committed digests, keyed by `(workload, design)`.
pub struct Digests(BTreeMap<(String, String), Block>);

/// One design's run of points in a canonical report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Design name.
    pub design: String,
    /// Points in the block.
    pub points: usize,
    /// FNV-1a 64 over the index-stripped point objects, newline-joined.
    pub digest: u64,
}

const HEADER: [&str; 3] = ["{", "  \"experiment\": \"dse_sweep\",", "  \"points\": ["];
const FOOTER: [&str; 2] = ["  ]", "}"];

impl Digests {
    /// The digests compiled into this binary.
    pub fn committed() -> Digests {
        Digests::parse(include_str!("../digests.txt"))
    }

    /// Parses `workload design points digest` lines (`#` comments).
    pub fn parse(text: &str) -> Digests {
        let mut map = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let f: Vec<&str> = line.split_whitespace().collect();
            if let [workload, design, points, digest] = f[..] {
                let block = Block {
                    design: design.to_string(),
                    points: points.parse().expect("digest point count"),
                    digest: u64::from_str_radix(digest, 16).expect("hex digest"),
                };
                map.insert((workload.to_string(), design.to_string()), block);
            }
        }
        Digests(map)
    }

    /// Points of `canonical` that do not match the digests recorded
    /// for `workload`: every point of a malformed report or of a
    /// mismatching design block, plus points the report is missing.
    pub fn failed_points(&self, workload: &str, canonical: &str, expected_points: usize) -> usize {
        let Ok(blocks) = blocks(canonical) else {
            return expected_points;
        };
        let got: usize = blocks.iter().map(|b| b.points).sum();
        let bad: usize = blocks
            .iter()
            .filter(|b| self.0.get(&(workload.to_string(), b.design.clone())) != Some(*b))
            .map(|b| b.points)
            .sum();
        bad + expected_points.saturating_sub(got)
    }
}

/// Cuts a canonical report into design blocks, checking its framing
/// and that point indices run 0, 1, 2, … in order.
pub fn blocks(canonical: &str) -> Result<Vec<Block>, String> {
    let lines: Vec<&str> = canonical.lines().collect();
    let n = lines.len();
    if n < HEADER.len() + FOOTER.len()
        || lines[..HEADER.len()] != HEADER
        || lines[n - FOOTER.len()..] != FOOTER
    {
        return Err("canonical report framing changed".into());
    }
    // Each point object starts on a line of its own and may span
    // several (the embedded report is pretty-printed).
    let mut objects: Vec<String> = Vec::new();
    for line in &lines[HEADER.len()..n - FOOTER.len()] {
        match objects.last_mut() {
            Some(obj) if !line.starts_with("    {\"index\": ") => {
                obj.push('\n');
                obj.push_str(line);
            }
            _ => objects.push(line.trim_start().to_string()),
        }
    }
    let mut out: Vec<Block> = Vec::new();
    for (i, obj) in objects.iter().enumerate() {
        let obj = obj.strip_suffix(',').unwrap_or(obj);
        let prefix = format!("{{\"index\": {i}, ");
        let rest = obj
            .strip_prefix(&prefix)
            .ok_or_else(|| format!("point {i} is out of order"))?;
        let design = rest
            .strip_prefix("\"design\": \"")
            .and_then(|r| r.split('"').next())
            .ok_or_else(|| format!("point {i} has no design"))?;
        match out.last_mut() {
            Some(b) if b.design == design => {
                b.digest = fnv1a(fnv1a(b.digest, b"\n"), rest.as_bytes());
                b.points += 1;
            }
            _ => out.push(Block {
                design: design.to_string(),
                points: 1,
                digest: fnv1a(FNV_OFFSET, rest.as_bytes()),
            }),
        }
    }
    Ok(out)
}

/// Renders digest lines for `workload` from a reference report.
pub fn render(workload: &str, canonical: &str) -> String {
    let mut out = String::new();
    for b in blocks(canonical).expect("reference report is well formed") {
        out.push_str(&format!(
            "{workload} {} {} {:016x}\n",
            b.design, b.points, b.digest
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(points: &[(&str, &str)]) -> String {
        let mut s = HEADER.join("\n");
        for (i, (design, body)) in points.iter().enumerate() {
            let comma = if i + 1 < points.len() { "," } else { "" };
            s.push_str(&format!(
                "\n    {{\"index\": {i}, \"design\": \"{design}\", \"x\": {{\n  \"v\": {body}\n}}}}{comma}"
            ));
        }
        s.push('\n');
        s.push_str(&FOOTER.join("\n"));
        s
    }

    #[test]
    fn digests_survive_rotation_and_catch_changed_points() {
        let a = report(&[("d1", "1"), ("d1", "2"), ("d2", "3")]);
        let digests = Digests::parse(&render("w", &a));
        assert_eq!(digests.failed_points("w", &a, 3), 0);
        let rotated = report(&[("d2", "3"), ("d1", "1"), ("d1", "2")]);
        assert_eq!(digests.failed_points("w", &rotated, 3), 0);
        let changed = report(&[("d1", "1"), ("d1", "9"), ("d2", "3")]);
        assert_eq!(digests.failed_points("w", &changed, 3), 2);
        let short = report(&[("d1", "1"), ("d1", "2")]);
        assert_eq!(digests.failed_points("w", &short, 3), 1);
        assert_eq!(digests.failed_points("w", "{}", 3), 3);
    }
}
