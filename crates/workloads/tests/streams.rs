//! Pinned instruction streams: a digest of the first 100 000
//! instructions of each of the study's 32 threads, for every application
//! at seeds 0 and 1. The generator compares integers where it once drew
//! floats; these digests were taken from the float draws, so they pin
//! that the two pick the same instructions and addresses bit for bit.

use memsim::{Instr, TraceSource};
use npbgen::{NpbApp, NpbTrace};

const THREADS: usize = 32;
const PER_THREAD: usize = 100_000;

/// FNV-1a over each instruction's kind and operand, thread by thread.
fn stream_digest(app: NpbApp, seed: u64) -> u64 {
    let mut trace = NpbTrace::from_profile_seeded(app.profile(), THREADS, seed);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    for tid in 0..THREADS {
        for _ in 0..PER_THREAD {
            let (kind, operand) = match trace.next(tid) {
                Instr::Fp => (0, 0),
                Instr::Other => (1, 0),
                Instr::Load(a) => (2, a),
                Instr::Store(a) => (3, a),
                Instr::Barrier => (4, 0),
                Instr::Lock(id) => (5, u64::from(id)),
                Instr::Unlock(id) => (6, u64::from(id)),
            };
            mix(kind);
            mix(operand);
        }
    }
    h
}

/// Per application: the digests at seeds 0 and 1.
const PINNED: &[(NpbApp, [u64; 2])] = &[
    (NpbApp::BtC, [0xb059_f434_b5c9_7577, 0xb02c_a245_6b0f_425f]),
    (NpbApp::CgC, [0xf9ea_0a8b_2bf5_39ec, 0x2892_f756_7a6e_efbd]),
    (NpbApp::FtB, [0xcb34_8178_05c1_7686, 0x7ed5_a2be_f96a_19ef]),
    (NpbApp::IsC, [0xd4b6_1cef_644b_89b5, 0xde6a_f7b2_fc69_8b2e]),
    (NpbApp::LuC, [0x26fb_6878_adc9_99b5, 0x82b9_2abb_06ed_c7ac]),
    (NpbApp::MgB, [0x6b25_22db_27a6_48e4, 0x825f_130c_ef18_6e9f]),
    (NpbApp::SpC, [0x2aae_ac69_19dd_26b6, 0x531a_fe1d_c9f9_9e47]),
    (NpbApp::UaC, [0xaf76_1bbc_b75e_8fcc, 0xc739_b077_a9ed_23c8]),
];

#[test]
fn every_application_stream_is_pinned() {
    assert_eq!(PINNED.len(), NpbApp::ALL.len());
    let mut moved = Vec::new();
    for &(app, pinned) in PINNED {
        for (seed, want) in pinned.into_iter().enumerate() {
            let got = stream_digest(app, seed as u64);
            if got != want {
                moved.push(format!(
                    "{app} seed {seed}: {got:#018x}, pinned {want:#018x}"
                ));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "instruction streams changed from the pinned digests:\n{}",
        moved.join("\n")
    );
}
