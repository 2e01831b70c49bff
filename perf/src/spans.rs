//! Spans recorded around the calls into each layer. They stay in
//! memory and are written out once, when the workload ends.

use nicsim_exp::Json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one repetition share this identifier: an index into
    /// the recorder's run names.
    pub run: usize,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    runs: Vec<String>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            runs: vec![String::new()],
        }
    }

    /// Name the repetition the following spans belong to.
    pub fn set_run(&mut self, run: &str) {
        self.runs.push(run.to_string());
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of whichever span is
    /// open; returns `f`'s result and the span's duration in seconds.
    /// Recording copies no string, so spans inside the traced window
    /// add nothing to its allocation count beyond the list's growth.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.runs.len() - 1,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj()
                        .with("id", id)
                        .with("name", s.name)
                        .with("run", self.runs[s.run].as_str())
                        .with("parent", s.parent)
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut s = Spans::new();
        s.set_run("rep0");
        let ((), outer) = s.time("outer", |s| {
            s.time("inner", |_| ());
        });
        let spans = s.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(s.runs[spans[1].run], "rep0");
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert!(outer >= 0.0);
    }
}
