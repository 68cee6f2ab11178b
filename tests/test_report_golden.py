"""Golden digests of the `filesafe-report/3` bytes, and of the `/1` bytes they encode.

The `/1` digests were recorded from the hand-written codec that the
table-driven one replaced.  `/2` stored the same witnesses with each
distinct node once, and `/3` stores only the program, its files and the
choice made at each step, so decoding rebuilds every configuration by
replay.  Each `/3` report and trace is decoded and written again as `/1`
by a reference encoder here, which must give the `/1` bytes, so `/3`
loses nothing `/1` held.  Any change to key order, tags, row order or
value encoding shows up here.  Regenerate the `/3` digests only together
with a schema version bump.

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
from filesafe.machine import HOLE, Ctrl, Hole, Unit, Value
from filesafe.report import _TAGS, summarize_control, trace_from_obj, trace_to_obj
from filesafe.syntax import Assign, BinOp, If, ReadAt

from conftest import CORPUS
from test_report_cli import check_argv

SEEDS = (0, 1, 2)

# The `check --json` report of each corpus case, wall_time_ms zeroed.
REPORT_SHA256 = {
    "skip": "2fbc7fdfe64e28fc0a1653e82998df256aba72b4a9d4b4421f0442a20729a7be",
    "final_value": "33c0f59929af647cccded1ca725541c734dc8ae9c2048ba1668058e8d7bc37cb",
    "arith": "7c6fbead2b2b5b253d7c7e80cec52dfbc4b77aa7723266f431793535e74e338d",
    "bools": "7c6fbead2b2b5b253d7c7e80cec52dfbc4b77aa7723266f431793535e74e338d",
    "loop": "a1064d05684607903b1dca91e43438c00c6bd95d901fdba49d0c3f22ae56a928",
    "guard_stuck": "9ac01bc4407f56c0e13922830f7d15eb500dd6e7443c639073686887a2374543",
    "div_zero": "7881aa23dbd11dc53e443193dc3db11f969566dd0f424ac6b11dc17219ef1c84",
    "open_close": "cf9bc4165233f91193267c1325fd061fa537fce95f9f9d6f8049442e336809b7",
    "open_twice": "46c300d136450ed74d574397a7b3bfab3742d8758a36f0c10c6fd89fed1e0222",
    "close_twice": "68f3dec9513ab65a44f63fdce7d05cbcac5661813ba3db86e0b53d87830cdcbc",
    "close_unopened": "9a8e550b30967b9d1bb2eb342c8da5f41843d2be49a369c0cb35703cfe81ba02",
    "read_closed": "46acce1d2b3d27d85c959c74afc57c0ef3f132626b7047d00b69b486cb7d83d6",
    "seq_read": "70ad6e58ee4d885d0fe49cc18f121bced0b65982640449b8890ce6354deb6681",
    "read_eof": "33c0f59929af647cccded1ca725541c734dc8ae9c2048ba1668058e8d7bc37cb",
    "forkfor_pointer": "466ed485faa15a25c379a00e6e36038c29d6daef718044873c7c17a737bdcbb0",
    "fork_race": "881af6e73811c910ecd93676a7591e2de65d10f210b60c1688f64d5463bf6742",
    "forkif_guarded": "2432df06f9ba05d8415b1edb8e6606562fe30d1576b4bab807519a2ce0783807",
    "oracle_predicate": "d6f5ad622251bb25238147249e2cec2d574cdb7a3c2bf18a788fb71efc17b860",
    "safe_read": "c7c2a4a3c65572b354aa4c49099aeb38300bd29dfdc2c95cbdc047783d7c899a",
    "safe_pos_expr": "51987a0d383f231cbfadb0f4fde8620c71ea4bef196d3207c2fae8b8e3913eed",
    "safe_fork": "19975375c26aae1b3151b2c0ce990907cd2059f458500525c0df9ed16779bc8e",
    "safe_forkif": "d6b50eb7a123ed362a775c7fc1d5db26869681a8df476d9cb0510e8041b33c6f",
    "safe_read_closed": "e1a4d4cd5e35c681c7f41fe83f8c0a4464fcc13ddb52cd16b8bea9b648e1e5e0",
    "safe_neg_pos": "7bbc64229a3e2d125b0fc83850088e6814ab9a7cfc370592b3686435393c88e8",
    "safe_seq": "e59c9c3e59c58d01ee16c094e1e59ad88816d2375516f791d3fccf17a804dd4f",
}

# json.dumps(trace_to_obj(run_single(..., seed=s)), indent=2) for each
# seed in SEEDS, joined with newlines.
TRACE_SHA256 = {
    "skip": "4e9b381d184f289b9011fffd5461625337da6ff5f7e89d64021e1171a15e8aa1",
    "final_value": "f9d665d966da7e82e1606c567841e57a2e77772de4e5b218376af5ef110924d7",
    "arith": "58deecbce8e9217d4edd0b3e582b22d374d9b7adcedffaff8f996d0b8b02a985",
    "bools": "8527d407c68b24c04bceebb773a9d6fe946f98cb8d357879bf1c86ef4a0260eb",
    "loop": "c92e5bdb519173bbb4f353e34cf12d1ff1c0e09288bf73d9bc69ea8089aec078",
    "guard_stuck": "f00251850e112bf32461db2e8c3afab8e0e60fb45ef59b3d69161ac110c64be2",
    "div_zero": "dbc95a91daa0d0aadf4ee0b412707db8e9d4dc46f5a84098e17692a694897c94",
    "open_close": "01d834c9045b5f24baf47d5e022fd95a9e1b00d16beb4bd789f79ee21831feed",
    "open_twice": "a07ead62537146a6e50bc01ebdadfb97cadce7623c557db89b3465eb18a45866",
    "close_twice": "0febcafca875dd1f87c59ba436121a49bd975923d38b1ea7294d5d77e537e9bd",
    "close_unopened": "1854d0dc919723e2003fcc259e9394acafd406b35bfbaba6eabab3fa2988b37d",
    "read_closed": "c5dfc6adf3bb678ce284963c16bf089f38f1ed85a67bb47555fb8cbaae144eb4",
    "seq_read": "79ebe74d96ea0ed5562ff91e7a9e90c9363b5cbfd5f99fef61d7fc9a5f26082c",
    "read_eof": "02210fa44b4f871ded6d1fd91df0d3a368df7153d817924a4dadd5c69b9200b4",
    "forkfor_pointer": "444915a4fb3c84766c576d06a6a9cc5994fd9d22f158fcac319f899354d4ce6c",
    "fork_race": "77aeadb6e57ac484f118670e006305bd3dfe33ce33d6018f0e13bc480a229927",
    "forkif_guarded": "2744edfb6c3ce0a39d9b3d62143991b9f003ea00919921bc326b133631952072",
    "oracle_predicate": "015b2badca9f75c06bd2fbb76448bc66fc0fd6c3522de72a474f696b64979d92",
    "safe_read": "6d7aa5be0dc7863ea40cff48baadf46b750ee24041f9a13189a9e1eb3927afc7",
    "safe_pos_expr": "a2d04eb7057f8ec2e7c847f152f724de6a1d7c566d612f7d0961a281a203380d",
    "safe_fork": "73be2972b4473daaf43e8e75948c6882c5f7defe7260ea212be1bfeb39445ba1",
    "safe_forkif": "c6a87e638bfbd31e2861d009d4d3ecefbbedd0506cb29057d5f3260b374bf21b",
    "safe_read_closed": "675264aa2a6331b309b1c4bbf262793fe606dca42bf580f8685984c19b5201ea",
    "safe_neg_pos": "bb41bed05264ab25392258decf44be6004ad50b1946960f6689b722900c64d2d",
    "safe_seq": "75214321bf5eab834798508aa3a464ccd3c66a4c44f0d540f209b76088057c7f",
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

# Every (tag key, tag) pair of `/1`: `/3` writes only the node rows, and
# the frame and choice tags are those of the `/1` reference encoder below.
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
        json.dumps(trace_to_obj(
            run_single(case.config(), case.bounds(), seed=seed, read_mode=case.read_mode),
            case.bounds(), read_mode=case.read_mode, truthy=False,
        ), indent=2)
        for seed in SEEDS
    ]


# ---------------------------------------------------------------------------
# A reference `filesafe-report/1` encoder: every node, frame and choice
# written out in full where it occurs, and each step with the summary of
# its control.

FRAME_TAGS = {Ctrl: "ctrl", Unit: "unit", Value: "value"}
# The `/1` tag of a hole frame, by its node's class and the field that
# holds `HOLE`, and the keys and values of the node's other fields that
# the `/1` frame kept, in its key order.
HOLE_FRAMES = {
    (BinOp, "left"): ("hole-op-right", lambda n: [("op", n.op), ("right", v1_value(n.right))]),
    (BinOp, "right"): ("hole-op-left", lambda n: [("left", n.left.n), ("op", n.op)]),
    (Assign, "value"): ("hole-assign", lambda n: [("target", n.target.name)]),
    (If, "cond"): ("hole-if", lambda n: [
        ("then", v1_value(n.then_body)), ("else", v1_value(n.else_body)),
    ]),
    (ReadAt, "pos"): ("hole-read", lambda n: [("target", n.target), ("file", n.file)]),
}
# A choice's tag and its one key, by the rule that made it; a null choice
# is tagged "unique" and has no key.
CHOICE_TAGS = {
    "fork": ("interleave", "order"), "forkfor": ("fork-count", "k"),
    "read-nd": ("oracle-pos", "n"),
}
TAGGED = {
    **{cls: ("node", tag) for cls, tag in _TAGS.items()},
    **{cls: ("frame", tag) for cls, tag in FRAME_TAGS.items()},
}


def hole_frame(hole):
    """The `/1` tag of the hole frame `hole`, and its (key, value) pairs."""
    node = hole.node
    slot = next(name for name in node.__match_args__ if getattr(node, name) is HOLE)
    tag, items = HOLE_FRAMES[type(node), slot]
    return tag, items(node)


def frame_tag(frame):
    return ("frame", hole_frame(frame)[0]) if type(frame) is Hole else TAGGED[type(frame)]


def v1_value(x):
    if type(x) is Hole:
        tag, items = hole_frame(x)
        return {"frame": tag, **dict(items)}
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


def v1_choice(rule_instance) -> dict:
    if rule_instance.choice is None:
        return {"choice": "unique"}
    tag, key = CHOICE_TAGS[rule_instance.rule]
    return {"choice": tag, key: v1_value(rule_instance.choice)}


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
    """The `/1` trace object of the `/3` trace object `obj`, decoded."""
    trace = trace_from_obj(obj)
    return {
        "start": v1_config(trace.start),
        "steps": [
            {
                "rule": rule_instance.rule,
                "choice": v1_choice(rule_instance),
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
            obj = json.loads(text)
            seen.update(next(iter(row.items())) for row in obj["nodes"])
            trace = trace_from_obj(obj)
            for rule_instance, config in ((None, trace.start), *trace.steps):
                seen.update(map(frame_tag, config.control))
                if rule_instance is not None:
                    seen.add(("choice", v1_choice(rule_instance)["choice"]))
    assert seen == TAGS
    choice_tags = {"unique", *(tag for tag, _ in CHOICE_TAGS.values())}
    hole_tags = {("frame", tag) for tag, _ in HOLE_FRAMES.values()}
    assert TAGS == set(TAGGED.values()) | hole_tags | {("choice", tag) for tag in choice_tags}
