//! Pinned lan_party receipts: for the scoreboard shape (8 users, 16
//! documents, 1 200 ops), the schedule digest and the final doc digest
//! of each pinned seed. A change to the generator, or to what the
//! engine makes of the same schedule, shows up as a mismatch.

use tendax_bench::lanparty::Schedule;

use crate::common::{texts_digest, GateFailure};
use crate::lan_party::{model_texts, schedule, LanPartyConfig};

/// `(seed, schedule digest, doc digest)`. Seed 42's pair equals the
/// receipts of the recorded scoreboard runs in `bench_results/`.
pub const LAN_PARTY: &[(u64, u64, u64)] = &[
    (1, 0xcd63c0e3ea601368, 0xbc4dd8640a1c40b4),
    (2, 0xb1fe5c025d9fea8b, 0x1e2225644e0c89cb),
    (3, 0x38714f2132e48db7, 0x8f0952aed6b12576),
    (4, 0x75a955279770a23b, 0x30bb4d523ce8aece),
    (5, 0xecc6be4b39ef24b0, 0xcffc49e8d2843d0e),
    (6, 0x8b03d5ea4ca0527e, 0x2920d9b4dbc24249),
    (7, 0x6310829e3cd85d10, 0x87cc09adad5e11d1),
    (8, 0xf1ddb0135b051b4e, 0xed99fd06a75e4d51),
    (9, 0xd29cdf8aab1fe231, 0x60a08756e42d8529),
    (10, 0x5fbaaabbd4ee69fa, 0x1d4cbb7ebec95f4e),
    (11, 0x9616a2aba124567f, 0x16a223ae3a57d298),
    (12, 0xfbe02460db1ee32e, 0xf9fff7a7edaffd68),
    (13, 0xe4a4bcb7c344feb5, 0xf63f1f329876aa52),
    (14, 0x9d9a61a4df333f4a, 0x0379f6ba10df5359),
    (15, 0x495778ed42a84774, 0xcee16224d5fa2175),
    (16, 0xa398070bdc00a99c, 0xc38ce1f0c895ccac),
    (17, 0x3229d1ce2c856854, 0x2e2a962980f44415),
    (18, 0xc48fb712bace9d7f, 0xaea84813a71b25e6),
    (19, 0x1e15c01b36814168, 0x2997f09b6e63679e),
    (20, 0xc0422028de5cd23e, 0xa3b1a56417134f04),
    (21, 0xa51fe28b9525c959, 0x5435434cfa878b32),
    (22, 0x8a6dc11312d1ea8a, 0xdf96256c89f22cd9),
    (23, 0xcf7c92061f55f113, 0x61312cbcbdc8d926),
    (24, 0xe02e2792ede8b154, 0x6596b74477f07ee2),
    (25, 0xc5cf00228c596a0d, 0xaed73b7ddf7b1de1),
    (26, 0x6f8ab96a6819fa76, 0xe9a5d703baa0e074),
    (27, 0xe603319d65f9ec0e, 0x55add254c49a089c),
    (28, 0xaff89ed5bcd288d9, 0xb3a70d76d37bc01e),
    (29, 0xea502411a96fa629, 0x8e0d383f565b9506),
    (30, 0x7ccab2763247e171, 0x47daa6e1192e2abf),
    (31, 0xd5fc20dabbdbfa13, 0x4f8bf1121132e098),
    (32, 0xa59b2997fa0dc003, 0xbfd5cd5117ff262c),
    (42, 0x43713ba6370b2a6e, 0x0602d65711ca3af9),
];

fn is_standard(s: &Schedule) -> bool {
    let std = LanPartyConfig::standard(0, 0.0, false);
    s.config.users == std.users && s.config.docs == std.docs && s.config.ops == std.ops
}

/// Check one executed schedule against its pinned digests, if its seed
/// is pinned.
pub fn check_lan_party(s: &Schedule, doc_digest: u64) -> Result<(), GateFailure> {
    if !is_standard(s) {
        return Ok(());
    }
    let Some(&(seed, sched, docs)) = LAN_PARTY.iter().find(|p| p.0 == s.config.seed) else {
        return Ok(());
    };
    if s.digest() != sched {
        return Err(GateFailure(format!(
            "seed {seed}: schedule digest {:016x}, pinned {sched:016x}",
            s.digest()
        )));
    }
    if doc_digest != docs {
        return Err(GateFailure(format!(
            "seed {seed}: doc digest {doc_digest:016x}, pinned {docs:016x}"
        )));
    }
    Ok(())
}

/// Regenerate every pinned schedule and replay it on the reference
/// model: the generator and the model must still produce the pinned
/// digests, whatever seed the run itself uses.
pub fn check_generator() -> Result<(), GateFailure> {
    for &(seed, _, _) in LAN_PARTY {
        let s = schedule(&LanPartyConfig::standard(seed, 0.0, false), 0);
        check_lan_party(&s, texts_digest(&model_texts(&s)))?;
    }
    Ok(())
}
