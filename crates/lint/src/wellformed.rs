//! Mapping network well-formedness violations ([`ModelError`]) onto
//! `S2xx` diagnostics.

use crate::diagnostic::Diagnostic;
use crate::registry::Code;
use slim_automata::error::ModelError;
use slim_automata::network::Network;
use slim_automata::validate::validate_all;

/// The `S2xx` code for a [`ModelError`] variant.
pub fn code_of(e: &ModelError) -> Code {
    match e {
        ModelError::DuplicateName(_) => Code::WfDuplicateName,
        ModelError::UnknownName(_) => Code::WfUnknownName,
        ModelError::MixedTransitionKinds { .. } => Code::WfMixedTransitionKinds,
        ModelError::MarkovianNotInternal { .. } => Code::WfMarkovianNotInternal,
        ModelError::MarkovianInvariant { .. } => Code::WfMarkovianInvariant,
        ModelError::NonPositiveRate { .. } => Code::WfNonPositiveRate,
        ModelError::RateConflict { .. } => Code::WfRateConflict,
        ModelError::RateOnDiscrete { .. } => Code::WfRateOnDiscrete,
        ModelError::FlowCycle { .. } => Code::WfFlowCycle,
        ModelError::FlowTargetConflict { .. } => Code::WfFlowTargetConflict,
        ModelError::Type(_) => Code::WfType,
        ModelError::BadInit { .. } => Code::WfBadInit,
        ModelError::Empty | ModelError::NoLocations { .. } => Code::WfEmpty,
        ModelError::IndexOutOfRange { .. } => Code::WfIndexOutOfRange,
    }
}

/// Converts one [`ModelError`] into a diagnostic (its message is the
/// error's `Display` form; well-formedness findings carry no source span).
pub fn diagnose_model_error(e: &ModelError) -> Diagnostic {
    Diagnostic::new(code_of(e), e.to_string())
}

/// Runs [`validate_all`] and maps every violation to an `S2xx` diagnostic.
/// A network that passed validation at assembly
/// ([`Network::is_validated`]) has none, so it is not checked again:
/// [`slim_automata::validate::validate_network`] reports exactly the
/// first violation [`validate_all`] would.
pub fn wellformedness(net: &Network) -> Vec<Diagnostic> {
    if net.is_validated() {
        return Vec::new();
    }
    validate_all(net).iter().map(diagnose_model_error).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_automata::error::TypeError;

    #[test]
    fn every_variant_maps_to_a_wf_code() {
        let cases = [
            (ModelError::DuplicateName("x".into()), Code::WfDuplicateName),
            (ModelError::UnknownName("x".into()), Code::WfUnknownName),
            (
                ModelError::MixedTransitionKinds { automaton: "a".into(), location: "l".into() },
                Code::WfMixedTransitionKinds,
            ),
            (
                ModelError::MarkovianNotInternal { automaton: "a".into(), location: "l".into() },
                Code::WfMarkovianNotInternal,
            ),
            (
                ModelError::MarkovianInvariant { automaton: "a".into(), location: "l".into() },
                Code::WfMarkovianInvariant,
            ),
            (
                ModelError::NonPositiveRate { automaton: "a".into(), rate: -1.0 },
                Code::WfNonPositiveRate,
            ),
            (ModelError::RateConflict { variable: "v".into() }, Code::WfRateConflict),
            (ModelError::RateOnDiscrete { variable: "v".into() }, Code::WfRateOnDiscrete),
            (ModelError::FlowCycle { involving: "v".into() }, Code::WfFlowCycle),
            (ModelError::FlowTargetConflict { variable: "v".into() }, Code::WfFlowTargetConflict),
            (ModelError::Type(TypeError::Mismatch { context: "c".into() }), Code::WfType),
            (ModelError::BadInit { variable: "v".into(), detail: "d".into() }, Code::WfBadInit),
            (ModelError::Empty, Code::WfEmpty),
            (ModelError::NoLocations { automaton: "a".into() }, Code::WfEmpty),
            (ModelError::IndexOutOfRange { what: "x", index: 1, len: 0 }, Code::WfIndexOutOfRange),
        ];
        for (err, code) in cases {
            let d = diagnose_model_error(&err);
            assert_eq!(d.code, code, "{err:?}");
            assert!(d.is_error());
            assert_eq!(d.message, err.to_string());
        }
    }

    #[test]
    fn wellformed_network_yields_no_diagnostics() {
        use slim_automata::network::{AutomatonBuilder, NetworkBuilder};
        let mut b = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("p");
        a.location("l");
        b.add_automaton(a);
        let net = b.build().unwrap();
        assert!(wellformedness(&net).is_empty());
    }

    /// The shortcut for built networks agrees with the full check on
    /// the same model assembled without validation.
    #[test]
    fn validated_networks_skip_the_check_with_the_same_answer() {
        use slim_automata::network::{AutomatonBuilder, NetworkBuilder};
        let builder = || {
            let mut b = NetworkBuilder::new();
            let mut a = AutomatonBuilder::new("p");
            a.location("l");
            b.add_automaton(a);
            b
        };
        let built = builder().build().unwrap();
        let raw = builder().assemble_for_validation().unwrap();
        assert!(built.is_validated() && !raw.is_validated());
        assert_eq!(wellformedness(&built), wellformedness(&raw));
    }
}
