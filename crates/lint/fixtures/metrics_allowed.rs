//! Allowed fixture: in-namespace names, dynamic names, non-registry
//! receivers, and a justified escape.

pub struct MetricsRegistry;

impl MetricsRegistry {
    pub fn add(&self, _name: &str, _v: u64) {}
    pub fn observe(&self, _name: &str, _v: f64) {}
}

pub struct Tracer;

impl Tracer {
    pub fn span(&self, _name: &str) {}
}

pub fn global() -> &'static MetricsRegistry {
    &MetricsRegistry
}

pub fn documented_namespaces() {
    let reg = global();
    reg.add("engine.answers_emitted", 1);
    reg.add("governor.budget_trips", 1);
    reg.observe("nd.rank_entropy", 0.5);
    reg.add("serve.requests", 1);
    reg.observe("serve.query.duration", 1.5);
    reg.add("serve.debug.recorded", 1);
}

pub fn dynamic_name(metrics: &MetricsRegistry, name: &str) {
    // Dynamic names cannot be checked statically; the rule skips them.
    metrics.add(name, 1);
}

pub fn span_names_are_out_of_scope(tracer: &Tracer) {
    // Tracer spans use their own schedule.*/pass.* vocabulary.
    tracer.span("schedule.topk");
}

pub fn justified_bridge_name() {
    let reg = global();
    // lint:allow(metrics-name): legacy dashboard key, kept until the v2
    // dashboards migrate to governor.*.
    reg.add("budget.trips_legacy", 1);
}

pub fn justified_external_probe_name() {
    let reg = global();
    // lint:allow(metrics-name): emitted for an external uptime prober
    // that expects this exact key; not part of the serve.* vocabulary.
    reg.add("probe.serve_alive", 1);
}
