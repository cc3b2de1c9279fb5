"""Byte-identity gate: pinned digests of trial records from every engine.

Each case runs ``TRIALS`` trials of one config with tracing on and hashes
one line per record: stream id, tau, winner and trace, plus, for top-card
war, ``repr`` of ``m_final``/``q_final`` and both trajectories. The cases
cover every random-draw rule valid on its deck (Bradley-Terry with each
strength family), every fwar deal and return order, and classic war over
both tie policies, ``min_hand`` 1/2 and ``face_down`` 0/1/2, plus the
round cap and the conditioned deal. A digest changes only if some trial's
output changes; refactors of the engines must leave all of them intact.
"""

import hashlib

import pytest

from warlab.classic import ClassicConfig
from warlab.fwar import FwarConfig
from warlab.pwar import PwarConfig
from warlab.stats import run_trials

SEED = 20230206
TRIALS = 20

#: name -> (config class, fields other than the trace flag).
CASES = {
    "pwar-coin-6x1": (PwarConfig, dict(deck=(6, 1), rule="coin")),
    "pwar-coin-3x2": (PwarConfig, dict(deck=(3, 2), rule="coin")),
    "pwar-greater-6x1": (PwarConfig, dict(deck=(6, 1), rule="greater")),
    "pwar-greater-tiecoin-6x1": (
        PwarConfig, dict(deck=(6, 1), rule="greater-tiecoin")),
    "pwar-greater-tiecoin-3x2": (
        PwarConfig, dict(deck=(3, 2), rule="greater-tiecoin", size_a=2)),
    "pwar-powered-6x1": (PwarConfig, dict(deck=(6, 1), rule="powered")),
    "pwar-powered-3x2": (PwarConfig, dict(deck=(3, 2), rule="powered")),
    "pwar-max-holder-6x1": (
        PwarConfig, dict(deck=(6, 1), rule="max-holder")),
    "pwar-bt-default-6x1": (
        PwarConfig, dict(deck=(6, 1), rule="bradley-terry")),
    "pwar-bt-constant-6x1": (
        PwarConfig, dict(deck=(6, 1), rule="bradley-terry",
                         strength="constant")),
    "pwar-bt-identity-3x2": (
        PwarConfig, dict(deck=(3, 2), rule="bradley-terry",
                         strength="identity")),
    "pwar-bt-shifted-6x1": (
        PwarConfig, dict(deck=(6, 1), rule="bradley-terry",
                         strength="shifted")),
    "pwar-bt-shifted2-6x1": (
        PwarConfig, dict(deck=(6, 1), rule="bradley-terry",
                         strength="shifted", strength_param=2)),
    "pwar-bt-exponential-6x1": (
        PwarConfig, dict(deck=(6, 1), rule="bradley-terry",
                         strength="exponential", strength_param=0.5)),
    "pwar-coin-8x1-capped": (
        PwarConfig, dict(deck=(8, 1), rule="coin", max_rounds=6)),
    **{
        f"fwar-{deal}-{order}": (
            FwarConfig, dict(n=5, deal=deal, return_order=order))
        for deal in ("uniform", "iid", "strongest")
        for order in ("random", "own_first", "captured_first")
    },
    "fwar-shifted-iid": (FwarConfig, dict(n=5, strength="shifted",
                                          deal="iid")),
    "fwar-exponential-uniform": (
        FwarConfig, dict(n=5, strength="exponential", strength_param=0.7,
                         size_a=2)),
    "fwar-constant-iid-capped": (
        FwarConfig, dict(n=6, strength="constant", deal="iid",
                         max_rounds=4)),
    **{
        f"classic-{tie}-min{min_hand}-fd{face_down}": (
            ClassicConfig, dict(deck=(4, 4), tie=tie, min_hand=min_hand,
                                face_down=face_down))
        for tie in ("war_round", "coin_flip")
        for min_hand in (1, 2)
        for face_down in (0, 1, 2)
    },
    "classic-war-top1": (
        ClassicConfig, dict(deck=(4, 4), top_rank_count=1, min_hand=2)),
    "classic-coin-top2": (
        ClassicConfig, dict(deck=(4, 4), tie="coin_flip", top_rank_count=2)),
    "classic-war-13x4-capped": (
        ClassicConfig, dict(deck=(13, 4), max_rounds=9)),
}

DIGESTS = {
    "classic-coin-top2":
        "cc3f243593481d185ea1c661b92225f9253fda79ef0c9af65098d2d41e4c34ea",
    "classic-coin_flip-min1-fd0":
        "dd193fd3b8c359720756bad7dc627286e91afd005cc12ea00d22922c3f83732e",
    "classic-coin_flip-min1-fd1":
        "dd193fd3b8c359720756bad7dc627286e91afd005cc12ea00d22922c3f83732e",
    "classic-coin_flip-min1-fd2":
        "dd193fd3b8c359720756bad7dc627286e91afd005cc12ea00d22922c3f83732e",
    "classic-coin_flip-min2-fd0":
        "2b7e3c02d0fc6326f58070de79a2828d62009d6a13266665b2b36f8be98ddb15",
    "classic-coin_flip-min2-fd1":
        "2b7e3c02d0fc6326f58070de79a2828d62009d6a13266665b2b36f8be98ddb15",
    "classic-coin_flip-min2-fd2":
        "2b7e3c02d0fc6326f58070de79a2828d62009d6a13266665b2b36f8be98ddb15",
    "classic-war-13x4-capped":
        "a75e88d4b7aab44399e72f505f16dfb788ce268b41687f8d7b85577518fd5cba",
    "classic-war-top1":
        "51f5240e3c378275d32debb4755ff04e63c90e0833b3fd49dee6bc6d1cf9abb1",
    "classic-war_round-min1-fd0":
        "f967b8ba76693bfb9b787170a4f8477c5899bd34512423399d029f9687f3c4e3",
    "classic-war_round-min1-fd1":
        "3d33978ecbbdb1d20732efbc3292e941e387f178f4c0f1ea31e4c9bf14d896f7",
    "classic-war_round-min1-fd2":
        "3756076deab840567f49aa03fbbf88d1d0833c3843e2288c1f00fb82af81f0b0",
    "classic-war_round-min2-fd0":
        "0b070a32bdf1d01dbc87bca1ca7237a945397aad1defe5d0653d96dc90b90d91",
    "classic-war_round-min2-fd1":
        "04d0b81ae5d8a0e98e0dc9d5a71cf3e43b5fe1ea5d8ee3094c6814889da1a3e3",
    "classic-war_round-min2-fd2":
        "77255692c3f12e18b92d2185f63a6a9f9d868d0bb8d4e9bee4b6fe6bdf88c2c9",
    "fwar-constant-iid-capped":
        "0e48e5fbeb88503d65d20364fa726d68bd9120731254718c774d21a4560b8d3f",
    "fwar-exponential-uniform":
        "cd99e7ac4895e7160b000cc896f4d6ab01bd15145cff02fbc901acd0bea12bcb",
    "fwar-iid-captured_first":
        "4c0445cb94f66dbab6ecdc79d7b67d23bb817b2298f50806210a7a8a24e92be7",
    "fwar-iid-own_first":
        "eb1eebd98860d8e552a22518d201150393081625b8775ec7a3d689932f5dadde",
    "fwar-iid-random":
        "984500a76b57daba64a646dd484e832fa5cdde87fb63d6108f458f13b64be827",
    "fwar-shifted-iid":
        "9cad84da02fd305a90cedca6e319ba03ad146352e84777ea31d35d2e3184d9a3",
    "fwar-strongest-captured_first":
        "f84c9bec4133b48a7e9b397788af012f641ba9ff7967f9c971bbc0f291317008",
    "fwar-strongest-own_first":
        "b4d4c444422d4a66aa764520469e7c3eb520ed8a0a8a8bd089914a74ca350177",
    "fwar-strongest-random":
        "bc52152735d824b8755190c4b2594106e322cc02ee6da02ca01c97a1c7e142cd",
    "fwar-uniform-captured_first":
        "9be6348c3b30313207a2d649322e185cabe691605e1a71ca5dd3c866641dd360",
    "fwar-uniform-own_first":
        "1f88ab75e9b550634e76f16eadb5dec971bb3793cf3c1e1d212dc98ba8a9ea48",
    "fwar-uniform-random":
        "4dbf65b4edf9ed455497cb29637a67966de1e9620608051e10df8f21dcdeb764",
    "pwar-bt-constant-6x1":
        "5802c784522c7ad69f767e725dcc7106ce7b52146c0ab1b9978bb528feae47e2",
    "pwar-bt-default-6x1":
        "7f8d668eeca4b203549edcb17c2d4b441075823b0c906c98755daf05a706d710",
    "pwar-bt-exponential-6x1":
        "0d127850fa03799489d08f5931c05a9d47222e1f95c3559104a71e8e9adf601f",
    "pwar-bt-identity-3x2":
        "152e6161e8d1fa5b47651cfc9e55a402833aa46fdef608f913574ad205ad64ef",
    "pwar-bt-shifted-6x1":
        "f63691ede37f4e6d021ec10ab7a06cc6bcd59cc3b6c37099e9d4b111281dcdcf",
    "pwar-bt-shifted2-6x1":
        "e730399edb43734100a5a9682af1d72ea01635c2a6d36546153dde32269e20a3",
    "pwar-coin-3x2":
        "5802c784522c7ad69f767e725dcc7106ce7b52146c0ab1b9978bb528feae47e2",
    "pwar-coin-6x1":
        "5802c784522c7ad69f767e725dcc7106ce7b52146c0ab1b9978bb528feae47e2",
    "pwar-coin-8x1-capped":
        "c66ae54c5591c554e367b00687416b8be78f3ee4678f1759da64cc93d8189055",
    "pwar-greater-6x1":
        "7286a64ca3b03a132fe1f133c966fa0ebe814358dba6d4082d3e66a4cdc6eed0",
    "pwar-greater-tiecoin-3x2":
        "8c88c0fbc3716a33f836e6df1588210b6af403af2021c898daf3bb18ec726315",
    "pwar-greater-tiecoin-6x1":
        "7286a64ca3b03a132fe1f133c966fa0ebe814358dba6d4082d3e66a4cdc6eed0",
    "pwar-max-holder-6x1":
        "04ad60e5bcc38e06c6cc162339a438b4e771e66d56ce2fcfa31cfeb34c59cec8",
    "pwar-powered-3x2":
        "9a4486d190536ef95dd034c5cf2c1fae4e28c163e53da7330959139651c57adc",
    "pwar-powered-6x1":
        "354273d587314196c03f1313465d35a520fcd65aeba77314c47576dc943887c9",
}


def digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        line = f"{r.stream_id} {r.tau} {r.winner} {r.trace!r}"
        if hasattr(r, "q_final"):
            line += (f" {r.m_final!r} {r.q_final!r}"
                     f" {r.m_trajectory!r} {r.q_trajectory!r}")
        h.update(line.encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_match_pinned_digest(name):
    cls, fields = CASES[name]
    records = run_trials(cls(**fields, record_trace=True), TRIALS, SEED)
    assert digest(records) == DIGESTS[name]
