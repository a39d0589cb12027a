//! The evaluation test suite.
//!
//! [`table1_suite`] defines exactly the eight tests of Table 1;
//! [`ablation`] defines the five concretization variants of Table 5; and
//! [`fig4_message_sequences`] the 1/2/3-symbolic-message workloads behind
//! Figure 4. One extra test (`queue_config`) exercises the queue-config
//! handler the paper's §5.1.2 crash catalogue reaches through its broader
//! runs.

use soft_dataplane::{eth_probe, tcp_probe, Packet};
use soft_openflow::builder::{self, ActionSpec, FlowModSpec, MatchMode};
use soft_protocol::{Input, TestCase};

fn tcp_probe_input() -> Input {
    Input::Probe {
        in_port: 1,
        packet: tcp_probe(),
    }
}

fn payload() -> Vec<u8> {
    tcp_probe().buf.as_concrete().expect("probe is concrete")
}

/// Table 1 "Packet Out": a single Packet Out with a symbolic action and a
/// symbolic output action.
pub fn packet_out() -> TestCase {
    TestCase::new(
        "packet_out",
        "Packet Out",
        "A single Packet Out message containing a symbolic action and a \
         symbolic output action.",
        vec![Input::Message(builder::packet_out(
            "m0",
            &[ActionSpec::Symbolic, ActionSpec::SymbolicOutput],
            &payload(),
        ))],
    )
}

/// Table 1 "Stats Request": a single symbolic Stats Request covering all
/// possible statistics requests.
pub fn stats_request() -> TestCase {
    TestCase::new(
        "stats_request",
        "Stats Request",
        "A single symbolic Stats Req. It covers all possible statistics \
         requests.",
        vec![Input::Message(builder::stats_request("m0"))],
    )
}

/// Table 1 "Set Config": a symbolic Set Config followed by a probing TCP
/// packet.
pub fn set_config() -> TestCase {
    TestCase::new(
        "set_config",
        "Set Config",
        "A symbolic Set Config message followed by a probing TCP packet.",
        vec![Input::Message(builder::set_config("m0")), tcp_probe_input()],
    )
}

/// Table 1 "FlowMod": a symbolic Flow Mod with 1 symbolic action and a
/// symbolic output action, followed by a probing TCP packet.
pub fn flow_mod() -> TestCase {
    TestCase::new(
        "flow_mod",
        "FlowMod",
        "A symbolic Flow Mod with 1 symbolic action and a symbolic output \
         action followed by a probing TCP packet.",
        vec![
            Input::Message(builder::flow_mod("m0", &FlowModSpec::symbolic_default())),
            tcp_probe_input(),
        ],
    )
}

/// Table 1 "Eth FlowMod": like FlowMod but non-Ethernet fields
/// concretized; probed with an Ethernet packet.
pub fn eth_flow_mod() -> TestCase {
    TestCase::new(
        "eth_flow_mod",
        "Eth FlowMod",
        "Symbolic Flow Mod with 1 symbolic action and a symbolic output \
         action. Fields not related to Ethernet are concretized. The \
         message is followed by a probing Ethernet packet.",
        vec![
            Input::Message(builder::flow_mod("m0", &FlowModSpec::eth_default())),
            Input::Probe {
                in_port: 1,
                packet: eth_probe(),
            },
        ],
    )
}

/// Table 1 "CS FlowMods": two Flow Mods, the first concrete and the
/// second symbolic.
pub fn cs_flow_mods() -> TestCase {
    TestCase::new(
        "cs_flow_mods",
        "CS FlowMods",
        "2 Flow Mod. The first one is concrete, the second is symbolic.",
        vec![
            Input::Message(builder::flow_mod("m0", &FlowModSpec::concrete_add(2))),
            Input::Message(builder::flow_mod("m1", &FlowModSpec::symbolic_default())),
        ],
    )
}

/// Table 1 "Concrete": the four concrete 8-byte messages with no variable
/// fields.
pub fn concrete() -> TestCase {
    TestCase::new(
        "concrete",
        "Concrete",
        "4 concrete 8-byte messages. These are the messages that do not \
         have variable fields.",
        builder::concrete_suite(0x10)
            .into_iter()
            .map(Input::Message)
            .collect(),
    )
}

/// Table 1 "Short Symb": a 10-byte symbolic message; only the version
/// byte is concrete.
pub fn short_symb() -> TestCase {
    TestCase::new(
        "short_symb",
        "Short Symb",
        "A 10-byte symbolic message. Only the OpenFlow version field is \
         concrete.",
        vec![Input::Message(builder::short_symbolic("m0"))],
    )
}

/// Extra test beyond Table 1: a symbolic Queue Get Config Request,
/// reaching the §5.1.2 port-0 memory error in the Reference Switch.
pub fn queue_config() -> TestCase {
    TestCase::new(
        "queue_config",
        "Queue Config",
        "A symbolic Queue Get Config Request (reaches the reference \
         switch's port-0 memory error).",
        vec![Input::Message(builder::queue_config_request("m0"))],
    )
}

/// Extension beyond the paper (its declared future work): a Flow Mod with
/// symbolic timeouts and flags, then a virtual-clock advance, then a probe.
/// With the time extension the engine *can* trigger flow expiry, making
/// the §5.1.1 timeout modification (M2) observable.
pub fn timeout_flow_mod() -> TestCase {
    let spec = builder::FlowModSpec {
        match_mode: MatchMode::WildcardAll,
        actions: vec![ActionSpec::Output(2)],
        command: Some(soft_openflow::consts::flow_mod_cmd::ADD),
        buffer_id: Some(soft_openflow::consts::NO_BUFFER),
        timeouts: None, // symbolic idle/hard timeouts
        flags: None,    // symbolic flags (SEND_FLOW_REM reachable)
        ..builder::FlowModSpec::symbolic_default()
    };
    TestCase::new(
        "timeout_flow_mod",
        "Timeout FlowMod",
        "A Flow Mod with symbolic timeouts and flags, a 60s virtual-clock \
         advance, and a probing TCP packet (time extension).",
        vec![
            Input::Message(builder::flow_mod("m0", &spec)),
            Input::AdvanceTime { now: 60 },
            tcp_probe_input(),
        ],
    )
}

/// The eight tests of Table 1, in table order.
pub fn table1_suite() -> Vec<TestCase> {
    vec![
        packet_out(),
        stats_request(),
        set_config(),
        flow_mod(),
        eth_flow_mod(),
        cs_flow_mods(),
        concrete(),
        short_symb(),
    ]
}

/// The interoperability tests whose crosschecks stay tractable: Table 1
/// without its two path-exploding Flow Mod tests (`flow_mod`,
/// `eth_flow_mod`), plus `queue_config` and `timeout_flow_mod`. The
/// default workload of the solver and pipeline benches.
pub fn interop_suite() -> Vec<TestCase> {
    vec![
        packet_out(),
        stats_request(),
        set_config(),
        cs_flow_mods(),
        concrete(),
        short_symb(),
        queue_config(),
        timeout_flow_mod(),
    ]
}

/// The crosscheckable subset used by Table 3 (the paper's Table 3 lists
/// Packet Out, Stats Request, Set Config, Eth FlowMod, CS FlowMods, and
/// Short Symb).
pub fn table3_suite() -> Vec<TestCase> {
    vec![
        packet_out(),
        stats_request(),
        set_config(),
        eth_flow_mod(),
        cs_flow_mods(),
        short_symb(),
    ]
}

/// Table 5 ablation variants.
pub mod ablation {
    use super::*;

    fn flow_mod_spec(match_mode: MatchMode, actions: Vec<ActionSpec>) -> FlowModSpec {
        FlowModSpec {
            match_mode,
            actions,
            ..FlowModSpec::symbolic_default()
        }
    }

    /// Baseline: a single symbolic Flow Mod containing 2 symbolic actions
    /// and 2 symbolic output actions, followed by a TCP probe.
    pub fn fully_symbolic() -> TestCase {
        TestCase::new(
            "abl_fully_symbolic",
            "Fully Symbolic",
            "Symbolic Flow Mod with 2 symbolic actions and 2 symbolic \
             output actions, followed by a TCP probe.",
            vec![
                Input::Message(builder::flow_mod(
                    "m0",
                    &flow_mod_spec(
                        MatchMode::Symbolic,
                        vec![
                            ActionSpec::Symbolic,
                            ActionSpec::Symbolic,
                            ActionSpec::SymbolicOutput,
                            ActionSpec::SymbolicOutput,
                        ],
                    ),
                )),
                tcp_probe_input(),
            ],
        )
    }

    /// Baseline with a concrete (wildcard-all) match.
    pub fn concrete_match() -> TestCase {
        TestCase::new(
            "abl_concrete_match",
            "Concrete Match",
            "The baseline with the match concretized to wildcard-all.",
            vec![
                Input::Message(builder::flow_mod(
                    "m0",
                    &flow_mod_spec(
                        MatchMode::WildcardAll,
                        vec![
                            ActionSpec::Symbolic,
                            ActionSpec::Symbolic,
                            ActionSpec::SymbolicOutput,
                            ActionSpec::SymbolicOutput,
                        ],
                    ),
                )),
                tcp_probe_input(),
            ],
        )
    }

    /// Baseline with one concrete action instead of four symbolic ones.
    pub fn concrete_action() -> TestCase {
        TestCase::new(
            "abl_concrete_action",
            "Concrete Action",
            "The baseline with a single concrete output action instead of \
             4 symbolic ones.",
            vec![
                Input::Message(builder::flow_mod(
                    "m0",
                    &flow_mod_spec(MatchMode::Symbolic, vec![ActionSpec::Output(2)]),
                )),
                tcp_probe_input(),
            ],
        )
    }

    /// Partially symbolic Eth Flow Mod followed by a short *concrete*
    /// probe.
    pub fn concrete_probe() -> TestCase {
        TestCase::new(
            "abl_concrete_probe",
            "Concrete Probe",
            "Partially symbolic Flow Mod applying to Ethernet packets, \
             followed by a short concrete probe.",
            vec![
                Input::Message(builder::flow_mod("m0", &FlowModSpec::eth_default())),
                Input::Probe {
                    in_port: 1,
                    packet: eth_probe(),
                },
            ],
        )
    }

    /// The same Flow Mod followed by a short *symbolic* probe.
    pub fn symbolic_probe() -> TestCase {
        TestCase::new(
            "abl_symbolic_probe",
            "Symbolic Probe",
            "Partially symbolic Flow Mod applying to Ethernet packets, \
             followed by a short symbolic probe.",
            vec![
                Input::Message(builder::flow_mod("m0", &FlowModSpec::eth_default())),
                Input::Probe {
                    in_port: 1,
                    packet: Packet::symbolic("p0", 20),
                },
            ],
        )
    }

    /// The five rows of Table 5, in order.
    pub fn table5_suite() -> Vec<TestCase> {
        vec![
            fully_symbolic(),
            concrete_match(),
            concrete_action(),
            concrete_probe(),
            symbolic_probe(),
        ]
    }
}

/// The Figure 4 workloads: 1, 2 and 3 symbolic Flow Mod messages (the
/// coverage-vs-message-count study of §3.2.2).
pub fn fig4_message_sequences() -> Vec<TestCase> {
    let fm = |tag: &str| {
        Input::Message(builder::flow_mod(
            tag,
            &FlowModSpec {
                // Keep the Figure 4 workloads tractable: Eth-scoped match,
                // one symbolic action.
                match_mode: MatchMode::EthOnly,
                actions: vec![ActionSpec::SymbolicOutput],
                ..FlowModSpec::symbolic_default()
            },
        ))
    };
    vec![
        TestCase::new(
            "fig4_one",
            "1 symbolic message",
            "One symbolic Flow Mod.",
            vec![fm("m0")],
        ),
        TestCase::new(
            "fig4_two",
            "2 symbolic messages",
            "Two symbolic Flow Mods (cross-interactions of message pairs).",
            vec![fm("m0"), fm("m1")],
        ),
        TestCase::new(
            "fig4_three",
            "3 symbolic messages",
            "Three symbolic Flow Mods.",
            vec![fm("m0"), fm("m1"), fm("m2")],
        ),
    ]
}
