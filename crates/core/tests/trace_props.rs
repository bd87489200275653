//! Property tests of the trace text parser: `PlannerTrace::from_text`
//! takes user-supplied text, so any input — arbitrary Unicode, lossily
//! decoded bytes, or near-valid lines with extreme counts — must return
//! `Ok` or `Err` and never panic.

use mpaccel_core::trace::PlannerTrace;
use proptest::prelude::*;

/// Counts that reach the allocation and arity paths: small valid ones,
/// values past `u32`/`i64`/`usize / 2`, and malformed ones.
const COUNTS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "7",
    "4294967296",
    "9223372036854775808",
    "18446744073709551615",
    "-1",
    "x",
];

const VALUES: &[&str] = &["0.25", "-3.5e2", "0", "NaN", "inf", "1e40", "?"];

const MODES: &[&str] = &["feasibility", "connectivity", "complete", "bogus"];

/// One line of near-valid trace text: a line kind, two counts, a mode and
/// some joint values.
fn line() -> impl Strategy<Value = String> {
    (
        0..7usize,
        0..COUNTS.len(),
        0..COUNTS.len(),
        0..MODES.len(),
        prop::collection::vec(0..VALUES.len(), 0..7),
    )
        .prop_map(|(kind, a, b, mode, vals)| {
            let (a, b) = (COUNTS[a], COUNTS[b]);
            let vals: Vec<&str> = vals.into_iter().map(|v| VALUES[v]).collect();
            match kind {
                0 => format!("solved {a}"),
                1 => format!("nn {a}"),
                2 => format!("ctrl {a}"),
                3 => format!("bus {a}"),
                4 => format!("batch {} {a}", MODES[mode]),
                5 => format!("motion {a} {b} {}", vals.join(" ")),
                _ => vals.join(" "),
            }
        })
}

/// Trace text line by line, usually behind a valid header, so parsing gets
/// past the header into the event and motion paths.
fn near_valid_trace() -> impl Strategy<Value = String> {
    (any::<u8>(), prop::collection::vec(line(), 0..12)).prop_map(|(h, lines)| {
        let mut text = String::from(if h % 8 == 0 { "" } else { "solved 1\n" });
        for l in lines {
            text.push_str(&l);
            text.push('\n');
        }
        text
    })
}

fn unicode_text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..96).prop_map(|cps| {
        cps.into_iter()
            .filter_map(|c| char::from_u32(c % 0x11_0000))
            .collect()
    })
}

fn lossy_bytes() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..256)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parser_never_panics_on_near_valid_text(text in near_valid_trace()) {
        let _ = PlannerTrace::from_text(&text);
    }

    #[test]
    fn parser_never_panics_on_unicode(text in unicode_text()) {
        let _ = PlannerTrace::from_text(&text);
    }

    #[test]
    fn parser_never_panics_on_lossy_bytes(text in lossy_bytes()) {
        let _ = PlannerTrace::from_text(&text);
    }

    /// Whatever parses serializes and parses back to an equal trace shape.
    #[test]
    fn parsed_traces_reserialize(text in near_valid_trace()) {
        if let Ok(t) = PlannerTrace::from_text(&text) {
            let back = PlannerTrace::from_text(&t.to_text());
            prop_assert!(back.is_ok(), "re-parse of {:?} failed", t.to_text());
            let back = back.unwrap();
            prop_assert_eq!(back.events.len(), t.events.len());
            prop_assert_eq!(back.solved, t.solved);
        }
    }
}
