"""Golden digests of the `filesafe-report/1` bytes.

The digests were recorded from the hand-written codec that the
table-driven one replaced, so any change to key order, tags or value
encoding in reports or traces shows up here.  Regenerate them only
together with a schema version bump.
"""

import hashlib
import json
import re

import pytest

from filesafe import run_single
from filesafe.cli import main
from filesafe.report import _TAGS, trace_to_obj

from conftest import CORPUS
from test_report_cli import check_argv

SEEDS = (0, 1, 2)

# The `check --json` report of each corpus case, wall_time_ms zeroed.
REPORT_SHA256 = {
    "skip": "425ece62fcd311fe42985162259adb75e369f1a6ff0097fcb67b740468051529",
    "final_value": "9da687a8cc69747ef9badf9f0722c786e5e466a59c50b31c0b8440fcc5170d11",
    "arith": "1089740fed3e9fe7b5e9417a5e9dd69b36cb06431e4aa435fb992efa7508ab9d",
    "bools": "1089740fed3e9fe7b5e9417a5e9dd69b36cb06431e4aa435fb992efa7508ab9d",
    "loop": "9ec4afe266d027dc9d0136626f25035cfbd4ba53930b137bff719f3f4938707a",
    "guard_stuck": "2b941abd1baff5ff189ce135a8945e0317edde7a64aa78ea46b1f53a8ee179bc",
    "div_zero": "ccc361c160cf067a71c35e9ad244c0e20eaad13ef30ebce9bd6f4208add4aaf8",
    "open_close": "f8e665d93345d74cc7f751dcd94d699e8f5e0cd3542d3c2901f5a5ee61186354",
    "open_twice": "45f53958ea0983a0287aefdd9d524e438602667d0415720403fb979741cd631d",
    "close_twice": "70eecc57af7be675a38b01425f9d4c43289124a8ea3ae80d54f04a987f90298c",
    "close_unopened": "14db02b470f2743ec9711a1cf1b9dc408eed619a8e94af8b2e3e980ff95033fe",
    "read_closed": "8d065f270600217591f7f74bb9679dabaf9a65f9b31a4c4a56ec17acedfa5f36",
    "seq_read": "4acc7121684ff96741df8a72dc6cef5448b2ddc7d525b3f016852579d0cef373",
    "read_eof": "9da687a8cc69747ef9badf9f0722c786e5e466a59c50b31c0b8440fcc5170d11",
    "forkfor_pointer": "5b7b4a9892cd27655d6d79a703b14de3e4e26d1bcd9c8f71de0b8490424cd08f",
    "fork_race": "1b6885d00adb0103575b0d0c3529f0139890c2a303da2b9ee64dbf063f583d8d",
    "forkif_guarded": "02f866f1b33720b808effa7adf5e9551a6709fd14ef4d45d1a6c8f47731bf492",
    "oracle_predicate": "a3f54e4c5be114f5b9d0610c83bf18c6447f462a46347884c2ec4f2da8cc7d66",
    "safe_read": "88fda4c538e056f916365af4324b73c80e672ceb02a262c7198c383444252502",
    "safe_pos_expr": "b8a014f9ec85e864754c011e7466834aafcd987982060b22b3ceff630e5ff099",
    "safe_fork": "27a2d70c2ddf9d50aa0d7149f795e01a6c4a41f009e4948f6908cad1d912116d",
    "safe_forkif": "92b9ac0dc3a41e7f08661e2035d6c52a682d547b25ba6cb90dee02b1d7131b7c",
    "safe_read_closed": "b23a6541634d67cef0e77df3d4aa713b94634e0b4ab3d690c0ca0e5ce494b43d",
    "safe_neg_pos": "ce07a508528f99800d7016c093f0810980b5d500da23c783d42b00d58160d2c8",
    "safe_seq": "9bd60479d827a9db62ee8e1657738aef445c1698acace53cfa3fb221245d5c54",
}

# json.dumps(trace_to_obj(run_single(..., seed=s)), indent=2) for each
# seed in SEEDS, joined with newlines.
TRACE_SHA256 = {
    "skip": "8fece441d3d565d12f53a1ffc8d7d828d96e5d3a75b6b7c2563873a7e87debb7",
    "final_value": "6acdf5cbe2191b9dbacfa517f86b27676a77d4d200912b60327dfcfa5ef2bf36",
    "arith": "b7df40306debbc628948cc16f69114a10aa0b89b5ac4dfaaf0bbee5a4a4b271f",
    "bools": "317d760f027bfe4877bcfe4681022528ff073266f231bcdb36a4b35694c79016",
    "loop": "0c1da5736fe89f971f1c93233558d327ea01a7535eb02e19032c4f219168de95",
    "guard_stuck": "f62cf0e2023b91c7bcffc86d83400114f825c6d9433d42f9f18666cab975f3b1",
    "div_zero": "685944e9a5830cdc254cbb868b8ca639bed224027aee4e7fbc2189d40b1d7984",
    "open_close": "5b07e704b80d2c13f4ad3309f85dc8e1877bdf14f72d22732d8e38daee5eb340",
    "open_twice": "afce9333ad2f7ebcb27bcc2a86dccfd700576552a560c28342d71e6b4575b5de",
    "close_twice": "3c6318e9434d0fe97b0b44505c0f4df9cbd092258806514d454448492f0da31e",
    "close_unopened": "2a5bedaaba2f75957ae0af5f18eddc7d0ff498b299c8b5e31951e82a9aaa23f0",
    "read_closed": "92dbe4b1c138d39ef1f3f9a1bc6ba88b8cb9bf1e2d820d1e6a6dd6c23c4f2230",
    "seq_read": "1ea36de3ec20e69135d71ca9c24493faab0068c4522db9b68a9eab8cef3ec3f2",
    "read_eof": "4f62389e3d1f1c6f0d9252587dfa0b45700cb119595636bcf893b2cfda4a3948",
    "forkfor_pointer": "95a6a7a48f111db8984e0dd0738a4ad6927c70477b4fded7ef3facaca0237994",
    "fork_race": "bd224cc5c09d47e835d9d4c283c28f58378ba3ae5e3c6f3eaff6be214f7f9d61",
    "forkif_guarded": "0f6953e56dd4bf749613b1824d59712053bc8d78aecef07f57eb16e7a2ee5658",
    "oracle_predicate": "a27ee7f2eb2a1b583a041a2c213ccad8389a7b76cb0e58fb47f7e0dad64688bb",
    "safe_read": "db72f99f57d4f7018c8c1bdf35383e4431ea2605b65aec68eacfe06ee8738e9e",
    "safe_pos_expr": "eaa71671b31226242d770ed7fd8ce51a7c9dc5dbbe3a87c1a132767bbea02efa",
    "safe_fork": "2111466cc89a943da530bb9038658fd7a1091459dc3bfc6c69fd83fe4f0aad69",
    "safe_forkif": "4924d1bd2b5fc11169303427a063b0ff94f4dde70770e2732eb4d5e1c016aa1d",
    "safe_read_closed": "187204134883017fe8c430e12a71552269913684be6cd00b4276573b453fa477",
    "safe_neg_pos": "f77f6eb2684ae269b1afa25c10b127b6da542424b7a1d67d8d27909448749d62",
    "safe_seq": "566939c9a00ad47d1ffdaf39872ba92922138f31af543a04f08cf166efe1875b",
}

# Every (tag key, tag) pair the report schema defines.
TAGS = {
    ("node", tag) for tag in (
        "int", "var", "binop", "and", "or", "assign", "if", "while", "open",
        "close", "read-nd", "read-at", "skip", "stmt", "seq", "fork",
        "forkfor", "forkif",
    )
} | {
    ("frame", tag) for tag in (
        "ctrl", "hole-op-right", "hole-op-left", "hole-assign", "hole-if",
        "hole-read", "unit", "value",
    )
} | {
    ("choice", tag) for tag in ("unique", "interleave", "fork-count", "oracle-pos")
}

WALL_TIME = re.compile(rb'"wall_time_ms": [-+.0-9eE]+')


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_bytes(case, tmp_path, capsys) -> bytes:
    path = tmp_path / f"{case.name}.json"
    main(check_argv(case.name, "--json", str(path)))
    capsys.readouterr()
    return WALL_TIME.sub(b'"wall_time_ms": 0.0', path.read_bytes())


def trace_texts(case) -> list[str]:
    return [
        json.dumps(trace_to_obj(run_single(
            case.config(), case.bounds(), seed=seed, read_mode=case.read_mode,
        )), indent=2)
        for seed in SEEDS
    ]


def tags_in(obj, out):
    if isinstance(obj, dict):
        for key in ("node", "frame", "choice"):
            if isinstance(obj.get(key), str):
                out.add((key, obj[key]))
        for value in obj.values():
            tags_in(value, out)
    elif isinstance(obj, list):
        for value in obj:
            tags_in(value, out)
    return out


@pytest.mark.parametrize("case", CORPUS, ids=lambda c: c.name)
def test_reports_and_traces_match_their_golden_digests(case, tmp_path, capsys):
    assert sha256(report_bytes(case, tmp_path, capsys)) == REPORT_SHA256[case.name]
    joined = "\n".join(trace_texts(case)).encode("utf-8")
    assert sha256(joined) == TRACE_SHA256[case.name]


def test_golden_traces_cover_every_tag():
    seen = set()
    for case in CORPUS:
        for text in trace_texts(case):
            tags_in(json.loads(text), seen)
    assert seen == TAGS
    assert TAGS == {(key, tag) for key, classes in _TAGS.items() for tag in classes.values()}
