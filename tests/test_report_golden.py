"""Golden digests of the `filesafe-report/2` bytes, and of the `/1` bytes they encode.

The `/1` digests were recorded from the hand-written codec that the
table-driven one replaced, and `/2` stores the same witnesses with each
distinct node once.  Each `/2` report and trace is decoded and written
again as `/1` by a reference encoder here, which must give the `/1`
bytes, so `/2` loses nothing `/1` held.  Any change to key order, tags,
row order or value encoding shows up here.  Regenerate the `/2` digests
only together with a schema version bump.

The digests pin content, not layout: `report_bytes` parses the written
report and dumps it again with `indent=2`, the layout they were recorded
from.  The layout is pinned by its assertion that the written text is
exactly the compact `json.dumps(doc, separators=(",", ":"))` plus a
newline.
"""

import hashlib
import json
from dataclasses import fields

import pytest

from filesafe import run_single
from filesafe.cli import main
from filesafe.report import _TAGS, summarize_control, trace_from_obj, trace_to_obj
from filesafe.syntax import Assign

from conftest import CORPUS
from test_report_cli import check_argv

SEEDS = (0, 1, 2)

# The `check --json` report of each corpus case, wall_time_ms zeroed.
REPORT_SHA256 = {
    "skip": "74bc32940b0570241857330c76b045a7b1464b08fa0249080d7335f8c6cc5a76",
    "final_value": "683c6a2835fc78e0388ebac08849e1eecccc7a67378ff4ba78da3f343276cafb",
    "arith": "8819fc6c9ad511f893209f9b7743dd7000c59f335890220bbe3a483ae3fd1bdc",
    "bools": "8819fc6c9ad511f893209f9b7743dd7000c59f335890220bbe3a483ae3fd1bdc",
    "loop": "b7c42fbeda91b0889f86dbb5cbbab1d7df2a08da32283b21ca0ab4653a623b03",
    "guard_stuck": "863e14635754395abe1feef3461a71172e1d4c6a987a5b848719de2999af7dbf",
    "div_zero": "444c56a40fc1fe18b405e8ddb484c18c7022f7f695d81ac01386a1d50558189b",
    "open_close": "4945b229b58b9c5e775185a6c0b744565c60ff87d465ddf7ed689016a16dad08",
    "open_twice": "2e366c1d7d334e821eb7ff6a1e37b17a7b471dc68ced0bda5e8a9071e269b6bc",
    "close_twice": "0ffcf2708f243479a681c7d06ccde29570434e0b5b21ba10eec858db3dfb0b06",
    "close_unopened": "4ff624f47ef7272093324f0d67f6e16a011f8abe4a7db51bc02661d63db22cbc",
    "read_closed": "8996e8b6ef0f3fa6cebb0ef18a85c5ebc33f08fc557f800aae0f33aaba0aa5b7",
    "seq_read": "ab7bbbab70cb66aaf987bb476967cdce24afca7177c832f5185543791bd548bc",
    "read_eof": "683c6a2835fc78e0388ebac08849e1eecccc7a67378ff4ba78da3f343276cafb",
    "forkfor_pointer": "802dd8399e13bb6020c7f0bad6c4499561abb8e9408a4bd8a2eea85354b649ff",
    "fork_race": "294945f52020c76bc7465937466b7a6a166a791f3151cf45f3e11b84814bd04a",
    "forkif_guarded": "01652840cf285a9a482a4730373f938d94f2a321fc15dd53150f5cbbbf53e106",
    "oracle_predicate": "afc1a2df28ff5c72d5320bf9e3899f4079ece45e36175cab753bf5bf452f953d",
    "safe_read": "76bacf0b3f3f5e382808a5387ca358130bd2e326b160d3fdf24cc402f2a3b198",
    "safe_pos_expr": "efb58728555aaaace113ea63e60817204424a6a7209d5e0e29e51dc97bb57b42",
    "safe_fork": "d8ebca86a6e0d8be7789d00f68d4d38986e6c855dd4e4351778c684e5b114666",
    "safe_forkif": "42e5dc3fc1899916d8ca06533acc48ce6f7c675d729333df091b3c86dacb7f97",
    "safe_read_closed": "6669e8c92eb0b1b58f853b86f97cff50c5d4070ce8614dc5a131a554637792bf",
    "safe_neg_pos": "b092af2ad7cd69aa97c4e48f1230a8b6ffa02f4f3f912e96f8031c39eb49a0c4",
    "safe_seq": "ad616c70a31e9464bacbe493665f7923560413dc340719aba3cd0cc28f8579c3",
}

# json.dumps(trace_to_obj(run_single(..., seed=s)), indent=2) for each
# seed in SEEDS, joined with newlines.
TRACE_SHA256 = {
    "skip": "e4f671ae71eef5c45fbcbf1b91ca78034f2137fb32f0f3bb9d591c3dcf1e4236",
    "final_value": "ddf75fb83c29f2b2f47fb4bcbd87f6a8bd325ab9c7ec21b0bacad07109cce90e",
    "arith": "d634bbbb8cd0c3e1b0bff99093f246072f6ad2e299ecc1efc50d1a414eef1466",
    "bools": "9f26eccfa654ce5216406cb459948dbf33d8c168823d08a9788507e5181498d3",
    "loop": "9633e2c87d83905da6cce2d6768f1191a3d3cb5b3d9c5af94c35a337b82c8058",
    "guard_stuck": "2f793e9294f1df07d9abcd64f99ab13b47d9c44c42af71ae29c7cad7ae85c173",
    "div_zero": "77b046457d4cbb6f3c38aab20696d015b5d0d26c072d492c787428ac220dd0f7",
    "open_close": "bfc824a2826265bad3853e94b7ed3eea757c892012cfb90f1a059a9033aea55c",
    "open_twice": "ab00a717ac94252dbb293bc2def8347929a005915c8c11184836c784e3d62121",
    "close_twice": "f9d10f16aacec659d2e4abc0be6c0ed4d885b5e3a1cbee3513e530d58065fbf7",
    "close_unopened": "24a078a74d653431d18a3cc2d7a31bafe2aa7c30f6fb0b5d03c31c4d5e8221a2",
    "read_closed": "2cd0589dd647981961b6b57402b6a5a5a44ab6f96b0e3faccb2f118a0792bcc3",
    "seq_read": "19066da96da3a56c96037637094576b2dfdf3fe9d618768ed24e70352f7bd29c",
    "read_eof": "b54c1ed0610493b5162552e70380e21e99adef38c9eb1a0bafaa731aad0994fc",
    "forkfor_pointer": "9c5ad2f315fbcb7b1ccd893857a99ec1d5fc7867387efa066ee7f0e09e54bfb4",
    "fork_race": "8fa2c1a2c4ff877a2febe341fc8129d57acd4658dff52c3af4ed5234cdd2b153",
    "forkif_guarded": "1d01a4d3071aa220fd6d5ef6fbf888a0ebdf9dacca9ac13c31baa92c4128734d",
    "oracle_predicate": "cccf108f3db7f31e12403fb321eb4efaf2689bdb1afd74faa8a27379bc733c16",
    "safe_read": "29746e3d73f5c05a073ce7798a9d14d1673d7db31351066043c03c9d4854d8c7",
    "safe_pos_expr": "df99ffba5dba0c90a85a31b0b08ce570f5bad509150493eb8736fef633d82790",
    "safe_fork": "eac5a6c499a580a355dd33cd19a4eeb367715be661bf1c1487acbb1958dad8ae",
    "safe_forkif": "0f444ad0923a10d52814c9dc8aa042065a9b1537f0fd2b9cb1e38ab0d1ad2f8b",
    "safe_read_closed": "de6643656c91b17e6b4b9fb4ef3c4c9d2359fff0de2bbfb49a86eb0a77402bab",
    "safe_neg_pos": "1cc75254f24b7f795e8971e0fd7ce26a7ad3f8b0685528929294687da5e52899",
    "safe_seq": "d1f5f4d368ac6df0463ccdee4faeaa97fa2b01c735dc133e8467e8fcee7bac57",
}

# The `filesafe-report/1` bytes of the `check --json` report of each
# corpus case, wall_time_ms zeroed.
REPORT_V1_SHA256 = {
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

# The `filesafe-report/1` text of json.dumps(trace_to_obj(run_single(...,
# seed=s)), indent=2) for each seed in SEEDS, joined with newlines.
TRACE_V1_SHA256 = {
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


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_bytes(case, tmp_path, capsys) -> bytes:
    """The report of `case`, re-dumped with indent 2 and wall_time_ms zeroed."""
    path = tmp_path / f"{case.name}.json"
    main(check_argv(case.name, "--json", str(path)))
    capsys.readouterr()
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert text == json.dumps(doc, separators=(",", ":")) + "\n"
    doc["wall_time_ms"] = 0.0
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def trace_texts(case) -> list[str]:
    return [
        json.dumps(trace_to_obj(run_single(
            case.config(), case.bounds(), seed=seed, read_mode=case.read_mode,
        )), indent=2)
        for seed in SEEDS
    ]


# ---------------------------------------------------------------------------
# A reference `filesafe-report/1` encoder: every node, frame and choice
# written out in full where it occurs, and each step with the summary of
# its control.

TAGGED = {cls: (key, tag) for key, classes in _TAGS.items() for cls, tag in classes.items()}


def v1_value(x):
    if type(x) is tuple:
        return [v1_value(v) for v in x]
    if type(x) not in TAGGED:
        return x
    tag_key, tag = TAGGED[type(x)]
    obj = {tag_key: tag}
    for f in fields(x):
        value = getattr(x, f.name)
        key = {"then_body": "then", "else_body": "else"}.get(f.name, f.name)
        obj[key] = value.name if type(x) is Assign and key == "target" else v1_value(value)
    return obj


def v1_config(config) -> dict:
    return {
        "mode": config.mode.value,
        "control": [v1_value(frame) for frame in config.control],
        "env": dict(config.env),
        "status": dict(config.status),
        "files": {
            name: {"contents": list(data), "cursor": cursor}
            for name, data, cursor in config.store.entries
        },
    }


def v1_trace(obj) -> dict:
    """The `/1` trace object of the `/2` trace object `obj`, decoded."""
    trace = trace_from_obj(obj)
    return {
        "start": v1_config(trace.start),
        "steps": [
            {
                "rule": rule_instance.rule,
                "choice": v1_value(rule_instance.choice),
                "control_summary": summarize_control(config.control),
                "config": v1_config(config),
            }
            for rule_instance, config in trace.steps
        ],
        "outcome": trace.outcome,
    }


def v1_report(text: bytes) -> bytes:
    obj = json.loads(text)
    obj["schema"] = "filesafe-report/1"
    if obj["witness"] is not None:
        obj["witness"] = v1_trace(obj["witness"])
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


@pytest.mark.parametrize("case", CORPUS, ids=lambda c: c.name)
def test_reports_and_traces_match_their_golden_digests(case, tmp_path, capsys):
    assert sha256(report_bytes(case, tmp_path, capsys)) == REPORT_SHA256[case.name]
    joined = "\n".join(trace_texts(case)).encode("utf-8")
    assert sha256(joined) == TRACE_SHA256[case.name]


@pytest.mark.parametrize("case", CORPUS, ids=lambda c: c.name)
def test_decoded_reports_and_traces_match_their_report_1_digests(case, tmp_path, capsys):
    report = v1_report(report_bytes(case, tmp_path, capsys))
    assert sha256(report) == REPORT_V1_SHA256[case.name]
    texts = [json.dumps(v1_trace(json.loads(text)), indent=2) for text in trace_texts(case)]
    assert sha256("\n".join(texts).encode("utf-8")) == TRACE_V1_SHA256[case.name]


def test_golden_traces_cover_every_tag():
    seen = set()
    for case in CORPUS:
        for text in trace_texts(case):
            seen.update(next(iter(row.items())) for row in json.loads(text)["nodes"])
    assert seen == TAGS
    assert TAGS == {(key, tag) for key, classes in _TAGS.items() for tag in classes.values()}
