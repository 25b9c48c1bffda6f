//! GNT's fit event on a refusal: owns its process so enabling the global
//! event stream cannot race other tests.

use ct_cfg::builder::diamond;
use ct_core::gnt::{estimate_gnt, GntError};
use ct_core::TimingSamples;
use ct_obs::Value;

#[test]
fn ill_conditioned_fit_emits_one_refused_gnt_fit_event() {
    // Equal arm costs: every p explains the single-point transform, so the
    // fit is refused — and the trace must say so.
    let cfg = diamond();
    let samples = TimingSamples::new(vec![115u64; 200], 1);
    ct_obs::set_stream_enabled(true);
    let r = estimate_gnt(&cfg, &[10, 100, 100, 5], &[0; 4], &samples);
    ct_obs::set_stream_enabled(false);
    assert!(matches!(r, Err(GntError::IllConditioned { .. })), "{r:?}");

    let snap = ct_obs::snapshot();
    let fits: Vec<_> = snap.events.iter().filter(|e| e.name == "gnt.fit").collect();
    assert_eq!(fits.len(), 1, "{fits:?}");
    let field = |k: &str| {
        fits[0]
            .fields
            .iter()
            .find(|(name, _)| name == k)
            .map(|(_, v)| v.clone())
    };
    assert_eq!(field("verdict"), Some(Value::Str("ill_conditioned".into())));
    assert!(matches!(field("objective"), Some(Value::F64(_))));
    assert!(matches!(field("conditioning"), Some(Value::F64(_))));
}
