//! The admission oracle shared by the admission test suites: what a
//! decision must say, given the global holistic analysis of
//! *accepted ∪ {candidate}* — the paper's admission protocol verbatim.

use gmfnet::analysis::{AdmissionDecision, AdmissionVictim, AnalysisReport};
use gmfnet::model::FlowId;

/// The victim a rejection must name: the reference's missed flows, split
/// into the candidate and the accepted flows it would harm.  `None` when
/// the reference did not converge (its bounds are not final) or nobody
/// misses.
pub fn expected_victim(reference: &AnalysisReport, candidate: FlowId) -> Option<AdmissionVictim> {
    if !reference.converged {
        return None;
    }
    let missed = reference.missed_flows();
    let candidate_misses = missed.contains(&candidate);
    let flows: Vec<FlowId> = missed.into_iter().filter(|&f| f != candidate).collect();
    match (candidate_misses, flows.is_empty()) {
        (true, true) => Some(AdmissionVictim::Candidate),
        (true, false) => Some(AdmissionVictim::Both { flows }),
        (false, false) => Some(AdmissionVictim::Existing { flows }),
        (false, true) => None,
    }
}

/// Assert `decision` is exactly what `reference` implies: the verdict, the
/// rejection reason and victim, and — since the decision's report covers
/// the candidate's shard only — every entry of that report, byte for
/// byte against the reference's entry for the same flow.
pub fn assert_matches_reference(
    decision: &AdmissionDecision,
    reference: &AnalysisReport,
    context: &str,
) {
    assert_eq!(decision.is_accepted(), reference.schedulable, "{context}");
    if let AdmissionDecision::Rejected { reason, victim, .. } = decision {
        let expected = reference.failure.as_deref().unwrap_or("deadline miss");
        assert_eq!(reason, expected, "{context}");
        assert_eq!(
            *victim,
            expected_victim(reference, decision.id()),
            "{context}"
        );
    }
    for flow_report in &decision.report().flows {
        assert_eq!(
            Some(flow_report),
            reference.flow(flow_report.flow),
            "{context}: the shard report must project out of the reference"
        );
    }
    assert_eq!(
        decision.report().schedulable,
        reference.schedulable,
        "{context}"
    );
    assert_eq!(decision.report().failure, reference.failure, "{context}");
    assert_eq!(
        decision.report().converged,
        reference.converged,
        "{context}"
    );
}
