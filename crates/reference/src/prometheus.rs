//! The workspace's one Prometheus exposition checker, for the tests of
//! the text `flexpath-serve` renders for `GET /metrics`.

/// A minimal Prometheus text-exposition parser: every line must be a
/// `# TYPE`/`# HELP` comment or a `name[{labels}] value` sample with a
/// metric name in `[a-zA-Z0-9_:]` and a float-parseable value, and every
/// histogram's `_bucket` series must be cumulative (monotone in `le`).
pub fn assert_prometheus_parses(text: &str) {
    let mut samples = 0usize;
    let mut last_bucket: Option<(String, u64)> = None;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE line names a metric");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in {line:?}"
            );
            let kind = parts.next().expect("TYPE line has a kind");
            assert!(
                kind == "counter" || kind == "histogram" || kind == "gauge",
                "unknown TYPE in {line:?}"
            );
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or other comments
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        let name = match series.split_once('{') {
            Some((n, labels)) => {
                assert!(labels.ends_with('}'), "unterminated labels in {line:?}");
                n
            }
            None => series,
        };
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad series name in {line:?}"
        );
        let v: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value in {line:?}"));
        // Cumulative-bucket check: within one _bucket series, counts never
        // decrease ("+Inf" is ordered last by the renderer).
        if let Some(base) = name.strip_suffix("_bucket") {
            let count = v as u64;
            match &last_bucket {
                Some((prev, prev_count)) if prev == base => {
                    assert!(
                        count >= *prev_count,
                        "non-cumulative bucket in {line:?} (prev {prev_count})"
                    );
                    last_bucket = Some((base.to_string(), count));
                }
                _ => last_bucket = Some((base.to_string(), count)),
            }
        } else {
            last_bucket = None;
        }
        samples += 1;
    }
    assert!(samples > 0, "exposition was empty");
}
