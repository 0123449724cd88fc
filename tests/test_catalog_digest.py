"""SHA-256 digests of every `run_catalog(3, 1000)` outcome
(check_id, p, lhs, rhs, holds, skipped, note): one over all of them, one
per check and one per prime. `catalog --format json` prints only per-check
counts, so an lhs or rhs that changes while the counts stay the same shows
here and nowhere else. On a mismatch the test names the first prime whose
outcomes differ and the checks whose outcomes differ; when one check
differs, that is the first differing (id, p).

Regenerate them only when an outcome is meant to change:
`PYTHONPATH=src python tests/test_catalog_digest.py` prints them (tests/golden.py).
"""

from itertools import groupby

import pytest

import golden
from kurepa import _memo
from kurepa.checks import run_catalog

LO, HI = 3, 1000


def _line(o) -> str:
    return repr((o.check_id, o.p, o.lhs, o.rhs, o.holds, o.skipped, o.note)) + "\n"


def digests(outcomes) -> tuple[list[str], dict, dict]:
    """(every outcome's line in (id, p) order, {check id: digest},
    {p: digest}); the per-check and per-prime digests keep 16 hex digits."""
    outcomes = sorted(outcomes, key=lambda o: (o.check_id, o.p))
    by_check = {i: golden.sha(map(_line, g))[:16]
                for i, g in groupby(outcomes, key=lambda o: o.check_id)}
    by_prime = {p: golden.sha(map(_line, g))[:16]
                for p, g in groupby(sorted(outcomes, key=lambda o: (o.p, o.check_id)),
                                    key=lambda o: o.p)}
    return list(map(_line, outcomes)), by_check, by_prime


def first_difference(outcomes) -> str | None:
    """None when the outcomes match the committed digests; otherwise where
    they first differ."""
    lines, by_check, by_prime = digests(outcomes)
    if golden.sha(lines) == DIGEST:
        return None
    ids = sorted(i for i in by_check.keys() | BY_CHECK.keys()
                 if by_check.get(i) != BY_CHECK.get(i))
    ps = sorted(p for p in by_prime.keys() | BY_PRIME.keys()
                if by_prime.get(p) != BY_PRIME.get(p))
    if len(ids) == 1 and ps:
        return f"first differing outcome: ({ids[0]}, {ps[0]})"
    return f"first differing prime: {ps[0] if ps else None}; differing checks: {ids}"


@pytest.fixture(scope="module")
def outcomes():
    _memo.clear_all()
    return run_catalog(LO, HI).outcomes


def test_catalog_outcomes_match_digest(outcomes):
    assert first_difference(outcomes) is None


def test_a_planted_outcome_is_named(outcomes):
    at = next(i for i, o in enumerate(outcomes) if (o.check_id, o.p) == ("C03", 503))
    planted = list(outcomes)
    planted[at] = planted[at]._replace(lhs=(planted[at].lhs + 1) % 503)
    assert first_difference(planted) == "first differing outcome: (C03, 503)"


DIGEST = "123e457c724d99c677e4933906e773c535af372938787d493b5f7d5667637f5c"
BY_CHECK = {
    "C01": "3c8055ce9d353f08",
    "C02": "bb3d7754f19821f1",
    "C03": "b2c1101a03432438",
    "C04": "391650292b1ce48d",
    "C05": "d52d12bc64dc3e4c",
    "C06": "c6ab6f007670622b",
    "C07": "9a183f3067dda17b",
    "C08": "81bc7c96f8cf6739",
    "C09": "6ada1eafb29e8776",
    "C10": "035d6e5d46959ff3",
    "C11": "872567bceaefea24",
    "C12": "3555fa02b6b72718",
    "C13": "5c79243e6c2ddf92",
    "C14": "57070f0f9fc109e3",
    "C15": "29350c976a2233ff",
    "C16": "b8ad2a263a3946d4",
    "C17": "ccbd33faeb9b7fca",
    "C18": "ba613193f6be390f",
    "C19": "24469d670b92ca12",
    "C20": "191176c66f079328",
    "C21": "4190bad7b8b706bc",
    "C22": "e88533e6f9a9293c",
    "C23": "fb7c13e62a4917cb",
    "C24": "011df5766bf8bc81",
    "C25": "59462acc912f4cce",
    "C26": "e9528905c4240b1d",
    "C27": "a65041caa21a15e8",
    "C28": "3797256be0951d7c",
    "C29": "4d37ab71a2085491",
    "C30": "4bb103a78ce0fe2b",
    "C31": "0dc540259710462e",
    "C32": "98b162441151b1ef",
}
BY_PRIME = {
    3: "237c72b53fd4a6ba", 5: "17adb39d4ca8601f", 7: "506b136b9a013097",
    11: "2462ff7076926cd9", 13: "8d774344516929c5", 17: "1f1a103ed991a751",
    19: "9ce2a703fd29c0e3", 23: "a1df71c1379b7093", 29: "cb509075c68beb05",
    31: "e1bd6771d43f04d8", 37: "8f9f3e3078ac6e95", 41: "60a2dd8e06141f3c",
    43: "8c43e06cb0aa2afb", 47: "8dbea1431a591ed9", 53: "a11623b39561819e",
    59: "79469f2417b4e7f8", 61: "1c8da7786fb530af", 67: "51f0ac36a88be28a",
    71: "66fc3655b3048672", 73: "12b7617c4013b1b2", 79: "411244dc980aee0f",
    83: "9df3b0487020df68", 89: "0309b818bb753de4", 97: "a0443de53a543c43",
    101: "1612ae0086d2a81e", 103: "9aa8ce4d99dfe57d", 107: "e27f8c1e85a08be9",
    109: "e11d7516a22a11a6", 113: "528b774c75b99359", 127: "e1c83611f5ea1da1",
    131: "16fa8ca179060092", 137: "8a14547ac4be91d9", 139: "d59a998b97c0a7d7",
    149: "2d1c4a0bdb47f1e0", 151: "52cbbfb1e32eef71", 157: "87b918b4e9cba844",
    163: "384d1e127c177bdf", 167: "b72f1d9177198cc2", 173: "73bf86dc76c9b3b7",
    179: "3c55e25a0223e3b3", 181: "243d1b4b7a0ae86c", 191: "a8e168292f93d45b",
    193: "d525aaf447cf3efb", 197: "98538d110f0ca509", 199: "e55aac78776c4818",
    211: "8277b294cc003fcd", 223: "feb1e1de239e464b", 227: "7139ee4dedc94db6",
    229: "a97c3e3c8df90f8e", 233: "ad695cca02980cff", 239: "9819511bb52a9075",
    241: "274fdc7f3512eaa2", 251: "742eca29a2dfc0dc", 257: "9c384cd07d3e690c",
    263: "714783637e2efcc0", 269: "5bbfc1cf8667576b", 271: "55a8c836ebb2298e",
    277: "9fb1b67cb9696adb", 281: "3c782a1b6e1fe2db", 283: "d94d1f835b12ff12",
    293: "6a9cd4ced45981bd", 307: "73d012533ceea514", 311: "18dde503deb6fbb4",
    313: "bb36df62ee5c7ee6", 317: "db1d50d1d0117305", 331: "7c1745e0ed4e7a8a",
    337: "509e0fccdef1ccd3", 347: "47f336b289a7804a", 349: "f1ab681696595020",
    353: "cd045a678f675429", 359: "a76fcbdfa61293dd", 367: "a9e958d76285b111",
    373: "652c8e1a7a644cc9", 379: "0f038831a4ab37ca", 383: "50d905e280013f55",
    389: "730a18993dba0060", 397: "32ea8d3b475daa75", 401: "e34aca6b72fb3c08",
    409: "d3b198fcf4454241", 419: "d83a82005c0b0503", 421: "72b721d48dffbf8c",
    431: "3c81e9b5c3c73e0b", 433: "904ead1eeeceda88", 439: "054de2b4c9dd72aa",
    443: "a372233dbac9f7c0", 449: "cbed9215028401ba", 457: "b584280d42c9cad6",
    461: "e612978b5076f4ee", 463: "7b684459bcb818e0", 467: "eb3550945d8019c8",
    479: "1da660e82818cc23", 487: "217e607617768ff8", 491: "e320cf780f47f3d8",
    499: "3e0b1f2b00fdb865", 503: "9a1fecffd249654e", 509: "c487b123b1b4a60e",
    521: "b3c776b4d4600c81", 523: "8da557f989e5c93a", 541: "354e1b7a7cd36c23",
    547: "91bca294c21793b3", 557: "9e00e220608d87f2", 563: "2cfe7c495a7e6b78",
    569: "21733146ef84172c", 571: "e95f360820f85308", 577: "b2ee34e7eb4e2fa4",
    587: "fe7dae45909f8085", 593: "8cb1ea221aaffa04", 599: "42e7c73b3b2c02e5",
    601: "2ce94139f7138690", 607: "7b3dbab7d078b401", 613: "2fe3f6c7f68c5602",
    617: "600762171344111a", 619: "1b4aa93a83e99ddd", 631: "b6904fd75028b3c2",
    641: "24d8e921517afa6a", 643: "ee5b03c66027d66e", 647: "01ccaa9dde7dac5d",
    653: "be765f69136661e8", 659: "f82a591e3b70e7b3", 661: "107ba1b7f6d5efdc",
    673: "7f6b67b4c3ed2aa7", 677: "355098dd57a3e54e", 683: "3e55dd01bdde6201",
    691: "a75352255a674db9", 701: "e9cbb6d69d03defc", 709: "4ba160c6f0bd9225",
    719: "27274de5049fcad6", 727: "408e6900bece174a", 733: "4804f6477a53231f",
    739: "f209b6fcd3e6e51d", 743: "0507291244aee587", 751: "a664d9e8c8445e7c",
    757: "6f24f62993512c4f", 761: "b1a23c7c339436ce", 769: "8317093619e4e280",
    773: "4b1c728f8797b8f5", 787: "8d1f4fe2bb45baa8", 797: "ff84285c836e200a",
    809: "30093fd6b0579c9f", 811: "8be635ed980089a2", 821: "ad8cc1c1b992e737",
    823: "0589b244c49af0f0", 827: "db224b000a8537e0", 829: "0c0bc2c70df2a70c",
    839: "f2a57372d8cd4d92", 853: "e1ffbefb9a54bc1e", 857: "21781183045d1fd1",
    859: "361cf4133eee2199", 863: "a88de0bb1af0f26f", 877: "4b3d38b7930aaf60",
    881: "8de874b5d0bb3332", 883: "48358df32cb4f36a", 887: "67d947aea61b79eb",
    907: "106a252ed6472557", 911: "e5984ef92dbd2836", 919: "89e73825232f1923",
    929: "b5819f42b45246c6", 937: "fd4590457e2b3da7", 941: "e5fcff59b83eb0d4",
    947: "744c52863758942e", 953: "ac078d7750f48025", 967: "4b8762a70ba9dead",
    971: "8d3d98c837771542", 977: "7c7a7759a3a3ad93", 983: "57a558c2e4076f8b",
    991: "df2470ccd07babc4", 997: "e13b91fc5d9deec5",
}


if __name__ == "__main__":
    _memo.clear_all()
    lines, by_check, by_prime = digests(run_catalog(LO, HI).outcomes)
    golden.show("DIGEST", golden.sha(lines))
    golden.show("BY_CHECK", by_check)
    golden.show("BY_PRIME", by_prime, per_row=3)
