//! Machine-readable metrics: a named, ordered registry exported as JSON.
//!
//! The simulator's free-text report (`ExecutionReport::dump`) is for eyes;
//! this registry is for scripts. Callers set named scalars (counters,
//! derived ratios, labels) with [`MetricsRegistry::set`] and its typed
//! shorthands. Insertion order is preserved so exports diff cleanly across
//! runs.

use std::fmt;

use crate::json;

/// One metric value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// An exact count or cycle value.
    U64(u64),
    /// A derived ratio or mean.
    Float(f64),
    /// A label (workload name, variant).
    Str(String),
}

impl fmt::Display for MetricValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricValue::U64(v) => write!(f, "{v}"),
            MetricValue::Float(v) => write!(f, "{v}"),
            MetricValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// Ordered name → value metric collection. See module docs.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    entries: Vec<(String, MetricValue)>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a metric, replacing any previous value under the same name
    /// (keeping its original position).
    pub fn set(&mut self, name: impl Into<String>, value: MetricValue) {
        let name = name.into();
        if let Some(slot) = self.entries.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.entries.push((name, value));
        }
    }

    /// Convenience for [`MetricValue::U64`].
    pub fn set_u64(&mut self, name: impl Into<String>, value: u64) {
        self.set(name, MetricValue::U64(value));
    }

    /// Convenience for [`MetricValue::Float`].
    pub fn set_f64(&mut self, name: impl Into<String>, value: f64) {
        self.set(name, MetricValue::Float(value));
    }

    /// Convenience for [`MetricValue::Str`].
    pub fn set_str(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.set(name, MetricValue::Str(value.into()));
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates metrics in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Serializes as a single JSON object, keys in insertion order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 32 + 2);
        out.push('{');
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            out.push(':');
            match value {
                MetricValue::U64(v) => out.push_str(&format!("{v}")),
                MetricValue::Float(v) => json::write_f64(&mut out, *v),
                MetricValue::Str(s) => json::write_str(&mut out, s),
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_preserves_order_and_replaces() {
        let mut m = MetricsRegistry::new();
        m.set_u64("b", 1);
        m.set_str("a", "x");
        m.set_u64("b", 2);
        let names: Vec<_> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["b", "a"]);
        assert_eq!(m.get("b"), Some(&MetricValue::U64(2)));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn json_export_parses_and_keeps_order() {
        let mut m = MetricsRegistry::new();
        m.set_str("workload", "tpcc");
        m.set_u64("writes", 10);
        m.set_f64("speedup", 2.05);
        let text = m.to_json();
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("workload").unwrap().as_str(), Some("tpcc"));
        assert_eq!(v.get("writes").unwrap().as_f64(), Some(10.0));
        assert_eq!(v.get("speedup").unwrap().as_f64(), Some(2.05));
        assert!(text.find("workload").unwrap() < text.find("speedup").unwrap());
    }
}
