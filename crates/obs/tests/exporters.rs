//! Property tests for the JSON exporters: whatever span names, track names,
//! label values, and run names the system throws at the recorder, the
//! Chrome trace and metrics snapshot must stay parseable JSON (quotes,
//! backslashes, control characters, and non-ASCII included), and the flow
//! events derived from request ids must pair up.

use std::collections::BTreeMap;

use cronus_obs::{parse, Event, FlightRecorder, Json, Work};
use cronus_sim::SimNs;
use proptest::prelude::*;
use proptest::Strategy;

/// Strings drawn from an alphabet of JSON-hostile characters: quotes,
/// backslashes, slashes, controls, and non-ASCII (including an astral-plane
/// emoji, which needs a surrogate pair in `\u` escapes).
fn nasty_string() -> impl Strategy<Value = String> {
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{1}', 'é', 'к',
        '漢', '🚀', '\u{2028}',
    ];
    proptest::collection::vec(any::<u8>(), 0..12).prop_map(|bytes| {
        bytes
            .iter()
            .map(|b| ALPHABET[*b as usize % ALPHABET.len()])
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chrome_trace_stays_parseable(
        spans in proptest::collection::vec(
            (nasty_string(), nasty_string(), any::<u16>(), any::<bool>()),
            1..24,
        ),
    ) {
        let rec = FlightRecorder::new();
        let mut now = 0u64;
        for (name, track, len, tracked) in &spans {
            if *tracked {
                let req = rec.alloc_req();
                rec.set_current_req(Some(req));
            } else {
                rec.set_current_req(None);
            }
            let start = SimNs::from_nanos(now);
            let end = SimNs::from_nanos(now + u64::from(*len) + 1);
            rec.record([Work::spanned(track, name.as_str(), "srpc", start..end)]);
            now += u64::from(*len) + 2;
        }
        let json = rec.chrome_trace_json();
        let doc = parse(&json);
        prop_assert!(doc.is_ok(), "trace not parseable: {:?}", doc.err());
        let doc = doc.expect("checked");
        let events = doc.get("traceEvents").and_then(Json::as_arr);
        prop_assert!(events.is_some(), "traceEvents missing");
    }

    #[test]
    fn metrics_snapshot_stays_parseable(
        entries in proptest::collection::vec(
            (nasty_string(), nasty_string(), nasty_string(), any::<u16>()),
            0..24,
        ),
        run in nasty_string(),
    ) {
        let rec = FlightRecorder::new();
        for (name, key, value, v) in &entries {
            let labels = &[(key.as_str(), value.as_str())];
            rec.record([
                Event::Count(name, labels, u64::from(*v)),
                Event::Gauge(name, labels, -i64::from(*v)),
                Event::Sample(name, labels, SimNs::from_nanos(u64::from(*v))),
            ]);
        }
        let json = rec.metrics_snapshot_json(&run);
        let doc = parse(&json);
        prop_assert!(doc.is_ok(), "snapshot not parseable: {:?}", doc.err());
    }

    #[test]
    fn flow_ids_pair_up(chains in proptest::collection::vec(1usize..6, 1..12)) {
        let rec = FlightRecorder::new();
        let mut now = 0u64;
        for (ri, n) in chains.iter().enumerate() {
            let req = rec.alloc_req();
            rec.set_current_req(Some(req));
            for k in 0..*n {
                rec.record([Work::spanned(&format!("track:{}", k % 3), format!("step{ri}.{k}"), "srpc", SimNs::from_nanos(now)..SimNs::from_nanos(now + 10))]);
                now += 20;
            }
        }
        rec.set_current_req(None);
        let doc = parse(&rec.chrome_trace_json()).expect("trace parses");
        let mut counts: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
        for e in doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents") {
            let (Some(ph), Some(id)) = (
                e.get("ph").and_then(Json::as_str),
                e.get("id").and_then(Json::as_u64),
            ) else {
                continue;
            };
            let c = counts.entry(id).or_insert((0, 0, 0));
            match ph {
                "s" => c.0 += 1,
                "t" => c.1 += 1,
                "f" => c.2 += 1,
                _ => {}
            }
        }
        // ReqIds are allocated 1, 2, ... in chain order; chains of one span
        // emit no flow events at all.
        for (ri, n) in chains.iter().enumerate() {
            let id = ri as u64 + 1;
            if *n < 2 {
                prop_assert!(!counts.contains_key(&id), "flow {id} for 1-span request");
            } else {
                let (s, t, f) = counts.get(&id).copied().unwrap_or((0, 0, 0));
                prop_assert_eq!(s, 1, "flow {} starts", id);
                prop_assert_eq!(f, 1, "flow {} finishes", id);
                prop_assert_eq!(t, *n as u64 - 2, "flow {} steps", id);
            }
        }
    }
}
