//! Chrome-trace export: render a recorded [`Trace`](crate::trace::Trace)
//! as a `chrome://tracing` / Perfetto JSON file, with the DMA engine and
//! the CPE compute stream as separate tracks.
//!
//! This is developer tooling for inspecting generated schedules — the
//! overlap (or lack of it) between the prefetched transfers and the GEMM
//! stream is immediately visible on the two tracks.

use crate::json::Writer;
use crate::trace::{Event, Trace};

/// Render the trace as Chrome trace-event JSON ("traceEvents" array form).
///
/// Track (tid) 0 is the CPE compute stream (GEMMs, transforms, stalls);
/// track 1 is the DMA engine (one slice per batch, issue → completion).
pub fn to_chrome_json(trace: &Trace, clock_ghz: f64) -> String {
    // Cycle counts in the JSON's microsecond unit.
    let us = |cycles: u64| cycles as f64 / (clock_ghz * 1e3);
    let mut w = Writer::trace_events();
    let mut slice = |name: &str, tid: usize, at: u64, cycles: u64| {
        w.trace_event(name, "X", 0, tid)
            .field("ts", format_args!("{:.3}", us(at)))
            .field("dur", format_args!("{:.3}", us(cycles)))
            .end_obj();
    };
    for e in trace.events() {
        match e {
            Event::Gemm { at, cycles, m, n, k } => {
                slice(&format!("gemm {m}x{n}x{k}"), 0, at.get(), cycles.get())
            }
            Event::Compute { at, cycles, what } => slice(what, 0, at.get(), cycles.get()),
            Event::DmaWait { at, stall, tag } => {
                if stall.get() > 0 {
                    slice(&format!("stall (tag {tag})"), 0, at.get(), stall.get());
                }
            }
            Event::DmaIssue { at, done, direction, payload_bytes, tag, .. } => slice(
                &format!("dma {direction:?} {payload_bytes}B (tag {tag})"),
                1,
                at.get(),
                done.get().saturating_sub(at.get()),
            ),
            Event::Regcomm { at, cycles, bytes } => {
                slice(&format!("regcomm scatter {bytes}B"), 1, at.get(), cycles.get())
            }
        }
    }
    w.thread_name(0, 0, "CPE compute").thread_name(0, 1, "DMA engine");
    w.finish_lines()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Cycles;
    use crate::trace::Trace;
    use crate::DmaDirection;

    #[test]
    fn renders_valid_shaped_json() {
        let mut t = Trace::enabled(16);
        t.push(Event::DmaIssue {
            at: Cycles(0),
            done: Cycles(500),
            direction: DmaDirection::MemToSpm,
            payload_bytes: 4096,
            bus_bytes: 4096,
            tag: 0,
        });
        t.push(Event::Gemm { at: Cycles(100), cycles: Cycles(400), m: 64, n: 64, k: 64 });
        t.push(Event::DmaWait { at: Cycles(500), stall: Cycles(20), tag: 1 });
        t.push(Event::Compute { at: Cycles(520), cycles: Cycles(30), what: "pack" });
        let json = to_chrome_json(&t, 1.45);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"gemm 64x64x64\""));
        assert!(json.contains("\"dma MemToSpm 4096B (tag 0)\""));
        assert!(json.contains("\"stall (tag 1)\""));
        assert!(json.contains("CPE compute"));
        assert!(json.contains("DMA engine"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_trace_still_valid() {
        let t = Trace::enabled(4);
        let json = to_chrome_json(&t, 1.45);
        assert!(json.contains("traceEvents"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn names_are_json_escaped() {
        let mut t = Trace::enabled(4);
        t.push(Event::Compute {
            at: Cycles(0),
            cycles: Cycles(10),
            what: "pack \"edge\" case\\path",
        });
        let json = to_chrome_json(&t, 1.45);
        assert!(json.contains("pack \\\"edge\\\" case\\\\path"));
        // The raw quote must not survive unescaped inside the name.
        assert!(!json.contains("\"pack \"edge\""));
    }

    #[test]
    fn zero_stalls_are_omitted() {
        let mut t = Trace::enabled(4);
        t.push(Event::DmaWait { at: Cycles(10), stall: Cycles(0), tag: 0 });
        let json = to_chrome_json(&t, 1.45);
        assert!(!json.contains("stall"));
    }
}
