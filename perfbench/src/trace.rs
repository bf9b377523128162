//! Span recorder for the traced run.
//!
//! Each call into a layer is bracketed by [`Tracer::open`] and
//! [`Tracer::close`]. A closed span records its layer, the id of the batch
//! or event that caused it, and its start and end in nanoseconds since the
//! run began. Spans nest (delivery materialization encloses the decap
//! calls it drives), so each layer's *self* time is its duration minus the
//! time its child spans cover. Aggregates cover every span; the raw span
//! log is kept in memory up to a cap and written out when the run ends.
//!
//! An untraced unit pays one branch per call site: `open` returns `None`
//! and `close` does nothing.

use std::io::Write as _;
use std::time::Instant;

/// One layer of the two end-to-end paths. Set-up stages are timed
/// directly, in every run, because `setup_s` is an end-to-end metric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Encap,
    Parse,
    Replay,
    Materialize,
    Decap,
    Event,
    HeaderFor,
    FlowInstall,
    Subscription,
    SruleSync,
}

impl Layer {
    pub const ALL: [Layer; 10] = [
        Layer::Encap,
        Layer::Parse,
        Layer::Replay,
        Layer::Materialize,
        Layer::Decap,
        Layer::Event,
        Layer::HeaderFor,
        Layer::FlowInstall,
        Layer::Subscription,
        Layer::SruleSync,
    ];

    /// The public call the span brackets.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Encap => "HypervisorSwitch::send",
            Layer::Parse => "FlightPacket::parse",
            Layer::Replay => "Fabric::replay_flights_sharded",
            Layer::Materialize => "DeliveryBatch::for_each",
            Layer::Decap => "HypervisorSwitch::receive",
            Layer::Event => "Controller::join/leave",
            Layer::HeaderFor => "Controller::header_for",
            Layer::FlowInstall => "SenderFlow::new+install_flow",
            Layer::Subscription => "HypervisorSwitch::subscribe/unsubscribe",
            Layer::SruleSync => "sim::temporal_exp::sync_group_rules",
        }
    }
}

/// Bit set on a span's cause id when the cause is a membership event
/// rather than a packet batch.
pub const EVENT_CAUSE: u32 = 1 << 31;

#[derive(Clone, Copy, Default, Debug)]
pub struct LayerAgg {
    pub calls: u64,
    pub self_ns: u64,
}

#[derive(Clone, Copy, Debug)]
struct SpanRec {
    layer: Layer,
    cause: u32,
    start_ns: u64,
    end_ns: u64,
}

/// An open span: returned by [`Tracer::open`], consumed by
/// [`Tracer::close`].
pub struct Open(Instant);

pub struct Tracer {
    /// Whether the current unit (batch or event) is traced.
    on: bool,
    epoch: Instant,
    /// Child time accumulated by each open span, innermost last.
    stack: Vec<u64>,
    aggs: [LayerAgg; Layer::ALL.len()],
    log: Vec<SpanRec>,
    log_cap: usize,
    dropped: u64,
}

impl Tracer {
    pub fn new(log_cap: usize) -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            stack: Vec::new(),
            aggs: [LayerAgg::default(); Layer::ALL.len()],
            log: Vec::new(),
            log_cap,
            dropped: 0,
        }
    }

    /// Turn tracing on or off for the next unit of work.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    #[inline]
    pub fn open(&mut self) -> Option<Open> {
        if !self.on {
            return None;
        }
        self.stack.push(0);
        Some(Open(Instant::now()))
    }

    #[inline]
    pub fn close(&mut self, layer: Layer, cause: u32, open: Option<Open>) {
        if let Some(open) = open {
            self.record(layer, cause, open.0);
        }
    }

    #[cold]
    fn record(&mut self, layer: Layer, cause: u32, start: Instant) {
        let end = Instant::now();
        let dur = end.duration_since(start).as_nanos() as u64;
        let child = self.stack.pop().expect("close pairs with open");
        if let Some(parent) = self.stack.last_mut() {
            *parent += dur;
        }
        let agg = &mut self.aggs[layer as usize];
        agg.calls += 1;
        agg.self_ns += dur.saturating_sub(child);
        if self.log.len() < self.log_cap {
            self.log.push(SpanRec {
                layer,
                cause,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            });
        } else {
            self.dropped += 1;
        }
    }

    pub fn agg(&self, layer: Layer) -> LayerAgg {
        self.aggs[layer as usize]
    }

    /// Self time summed over the given layers.
    pub fn self_ns(&self, layers: &[Layer]) -> u64 {
        layers.iter().map(|&l| self.agg(l).self_ns).sum()
    }

    pub fn spans(&self) -> u64 {
        self.log.len() as u64 + self.dropped
    }

    /// Write the span log as CSV (`layer,cause,start_ns,end_ns`, cause ids
    /// with bit 31 set are events, the rest batches).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "layer,cause,start_ns,end_ns")?;
        for s in &self.log {
            writeln!(
                w,
                "{},{},{},{}",
                s.layer.name(),
                s.cause,
                s.start_ns,
                s.end_ns
            )?;
        }
        if self.dropped > 0 {
            writeln!(w, "# {} further spans counted but not logged", self.dropped)?;
        }
        w.flush()
    }
}
