//! Known-bad fixture: registry metric names outside the documented
//! namespaces, through every receiver shape the rule tracks.

pub struct MetricsRegistry;

impl MetricsRegistry {
    pub fn add(&self, _name: &str, _v: u64) {}
    pub fn counter(&self, _name: &str) -> u64 {
        0
    }
    pub fn observe(&self, _name: &str, _v: f64) {}
}

pub fn global() -> &'static MetricsRegistry {
    &MetricsRegistry
}

pub fn let_binding_receiver() {
    let reg = global();
    reg.add("cache.hits", 1);
}

pub fn direct_chain() {
    global().observe("latency.ms", 3.5);
}

pub fn typed_param(metrics: &MetricsRegistry) -> u64 {
    metrics.counter("rows_emitted")
}

pub fn near_miss_of_the_serve_namespace() {
    // "serve." is a documented namespace; "server." is not.
    global().add("server.requests", 1);
}

pub fn in_namespace_but_out_of_charset() {
    // Uppercase survives neither the vocabulary nor /metrics sanitization.
    global().add("serve.debug.Recorded", 1);
}
