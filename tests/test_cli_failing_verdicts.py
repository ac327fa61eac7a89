"""Byte-identical stdout of the verdict commands on corrupted presets, by digest.

The golden digests pin only runs that pass.  Here each corrupted preset the
suite builds elsewhere is monkeypatched in through ``cli.build_preset``, and
``verify-cartan``, ``closure`` and ``verify-all`` run on it in text and json;
the sha256 of stdout and the exit status are compared with recorded values,
so the failure paths keep every reported byte too.
"""

import hashlib
import json

import pytest

import wqalg.cli as cli_mod
from oracle import laurent_sum, replace_preset
from wqalg import build_preset
from wqalg.exactfield import LaurentPoly, sym_minus


def _replace_entry(rows, i, j, value):
    rows = [list(r) for r in rows]
    rows[i][j] = value
    return tuple(map(tuple, rows))


def _wrong_mtilde_entry(g2):
    return replace_preset(g2, mtilde=_replace_entry(g2.mtilde, 0, 1, sym_minus(1)))


def _limit_pole(g2):
    # M = D adj(Mtilde') D / det Mtilde' with Mtilde'_11 = t^2 - t^-2 + 1:
    # the residual holds, the t -> 1 limit of entry (1,1) has a pole.  Q and N
    # shift together so that Q has min exponent 0, as in every built preset
    mtilde = _replace_entry(g2.mtilde, 0, 0, laurent_sum(sym_minus(2), LaurentPoly.one()))
    (a, b), (c, d) = mtilde
    det = laurent_sum(a * d, -(b * c))
    adj = [[d, -b], [-c, a]]
    nums = tuple(tuple((g2.d[i] * adj[i][j] * g2.d[j]).shift(-det.min_exp) for j in range(2))
                 for i in range(2))
    return replace_preset(g2, pair_table=(det.shift(-det.min_exp), nums), mtilde=mtilde)


def _singular_mtilde(g2):
    a = sym_minus(2)
    return replace_preset(g2, mtilde=((a, a), (a, a)))


def _shifted_lambda(index, by):
    def corrupt(preset):
        lams = list(preset.lambdas)
        lams[index] = lams[index].shift_arg(by)
        return replace_preset(preset, lambdas=tuple(lams))
    return corrupt


def _with_m12(entry):
    def corrupt(g2):
        q, nums = g2.pair_table
        return replace_preset(g2, pair_table=(q, ((nums[0][0], entry), (entry, nums[1][1]))))
    return corrupt


def _laurent_m11(g2):
    q, nums = g2.pair_table
    return replace_preset(g2, pair_table=(q, ((sym_minus(1) * q, nums[0][1]), nums[1])))


# name -> (kind, n, corruption of the built preset)
CORRUPTIONS = {
    "g2-wrong-mtilde-entry": ("g2", None, _wrong_mtilde_entry),
    "g2-limit-pole": ("g2", None, _limit_pole),
    "g2-singular-mtilde": ("g2", None, _singular_mtilde),
    "g2-shifted-lambda": ("g2", None, _shifted_lambda(5, 2)),
    "d4-shifted-lambda": ("dn", 4, _shifted_lambda(0, 1)),
    "e6-shifted-lambda": ("e6", None, _shifted_lambda(0, 2)),
    # M_12 = 1/Q is symmetric but not odd
    "g2-m-not-odd": ("g2", None, _with_m12(LaurentPoly.one())),
    # M_12 = t^4 (t - t^-1) / Q is odd, but the T1 x T1 symbols do not decompose
    "g2-m12-not-decomposable": ("g2", None, _with_m12(LaurentPoly({5: 1, 3: -1}))),
    "g2-laurent-m11": ("g2", None, _laurent_m11),
}

COMMANDS = ("verify-cartan", "closure", "verify-all")
FORMATS = ("text", "json")

# (corruption, command, format) -> (exit status, sha256 of stdout)
EXPECTED = {
    ("g2-wrong-mtilde-entry", "verify-cartan", "text"): (1,
        "701d24907fbd695597230f5122151645a302bfaf2c602162e0374eebda432c7a"),
    ("g2-wrong-mtilde-entry", "verify-cartan", "json"): (1,
        "0f9a10903be96b50a1546b0288f18d57cf51b7252f397de4134b2ee6a7d31d9c"),
    ("g2-wrong-mtilde-entry", "closure", "text"): (0,
        "78258596d822970486b3990f2e567d2dd40cada93457b91929080dad0b99cf16"),
    ("g2-wrong-mtilde-entry", "closure", "json"): (0,
        "654dcf440ab42a8d718304e702f03a22d1cf872055be574eda705b2a0c5629f7"),
    ("g2-wrong-mtilde-entry", "verify-all", "text"): (1,
        "64a2f7e851326dcd15402c6fc06f77ebaab2b4ccf9a219fb0ae0be2bdaddbbc9"),
    ("g2-wrong-mtilde-entry", "verify-all", "json"): (1,
        "0f2a3414f2be6302887f1118b1939de08a93f6bf3436850047d33191b1bc684d"),
    ("g2-limit-pole", "verify-cartan", "text"): (1,
        "cf7305d8450438f3ec1851441d5eff5e7ded9cb13b3d82d891383e903f328066"),
    ("g2-limit-pole", "verify-cartan", "json"): (1,
        "6abef43078de934f4ce2c1bc566a5a604b2f16fc5d8c078e33ee3f9241b8bc22"),
    ("g2-limit-pole", "closure", "text"): (1,
        "cfcf7fdcd3a92507ef1771aa55d6f35325fb8e825a9b2c02abc0d44c3df7c368"),
    ("g2-limit-pole", "closure", "json"): (1,
        "76d22f6651f2b614ab170f41e23988066102f1e439dd5246bc3fcf93b412a4d1"),
    ("g2-limit-pole", "verify-all", "text"): (1,
        "ff0d5bf06e97aa2086561b94c1fbcb3240391254d3cd7f4736e95c1abb2b9efa"),
    ("g2-limit-pole", "verify-all", "json"): (1,
        "53a98720231c48703d6f1d9acdc61f94359edc8bd2f5daf11ecbfd53a985aa8e"),
    ("g2-singular-mtilde", "verify-cartan", "text"): (1,
        "eed0b20d3183556203084f89f4114438e85acb353bba314405ab7622dd8794ff"),
    ("g2-singular-mtilde", "verify-cartan", "json"): (1,
        "a4166ef2de2e8a17c0896eb78155c5853713219f86bec845751571eaaa9efc4f"),
    ("g2-singular-mtilde", "closure", "text"): (0,
        "78258596d822970486b3990f2e567d2dd40cada93457b91929080dad0b99cf16"),
    ("g2-singular-mtilde", "closure", "json"): (0,
        "654dcf440ab42a8d718304e702f03a22d1cf872055be574eda705b2a0c5629f7"),
    ("g2-singular-mtilde", "verify-all", "text"): (1,
        "33f1f0c8159a04ba4ea81c61747f87b137deb6e7152367194a0c939c924f43b4"),
    ("g2-singular-mtilde", "verify-all", "json"): (1,
        "166d19bd5446201ba23bc9390e71619e48fb7f1d7351f15017d4eef734fa5a76"),
    ("g2-shifted-lambda", "verify-cartan", "text"): (0,
        "9da952b2c012dff37712c681161eee9f1164c1a67ef05274436f3b9b2b49d309"),
    ("g2-shifted-lambda", "verify-cartan", "json"): (0,
        "75c15e06ea89a712c3d973b268be80ea13adcaa5a2993adce55e28b2044053c8"),
    ("g2-shifted-lambda", "closure", "text"): (1,
        "acded3eb5bdb68b30aa1c7d698dfe2fa44c77178398cb19b357374736b90d7f3"),
    ("g2-shifted-lambda", "closure", "json"): (1,
        "2fe765148ba6593f0427c44e273b19e1dacd40bd2e4aab5e93341db3060ae0e8"),
    ("g2-shifted-lambda", "verify-all", "text"): (1,
        "f59f8d7f1261f3c04cd352dd1f35b569575ccaaaabfa19f5c41765a83e2759b6"),
    ("g2-shifted-lambda", "verify-all", "json"): (1,
        "7e724b2d208361ccd83d3fbe8375329b8e54e8902c613015fadd5f92f1cdadf5"),
    ("d4-shifted-lambda", "verify-cartan", "text"): (0,
        "7ba81c3368b8d23068e551246785195c504edc9e9a35762c2c9679771666a2d4"),
    ("d4-shifted-lambda", "verify-cartan", "json"): (0,
        "a101864d467e29240abd584a4c99f4d54e3dd86085643b9da9f3b8f9734387a0"),
    ("d4-shifted-lambda", "closure", "text"): (1,
        "44dab4277a98a82bd4311b44826669a5877ff22386dec63e0aa7c57c0e2835ae"),
    ("d4-shifted-lambda", "closure", "json"): (1,
        "6ae12f0bef072c4a89bb4746cb0f927ee09c0589527ce2e31f18d7d183c25f90"),
    ("d4-shifted-lambda", "verify-all", "text"): (1,
        "6248860925b4fc4211aa60cf33efadf5a408eb477cf1083c7a6a7464331ca173"),
    ("d4-shifted-lambda", "verify-all", "json"): (1,
        "410e3d4c26564a128ee4b8456f28ecc23315d2c3150cd8a71d6a3deb3d5ddb72"),
    ("e6-shifted-lambda", "verify-cartan", "text"): (0,
        "bee0538e659c4677dc0bea1fc2c282d9c9f9a8f1939eb306e8c656e3c377b0e7"),
    ("e6-shifted-lambda", "verify-cartan", "json"): (0,
        "ec2a1c142caaad1e32ffcf31f4b83b3b141b95d0c13709c52cd0816cc07d0d03"),
    ("e6-shifted-lambda", "closure", "text"): (1,
        "6fcaf0e229a19cd158be6aa0c7217b218b9f00cbd249b8d1d24701fc2e5355b5"),
    ("e6-shifted-lambda", "closure", "json"): (1,
        "724fee9cf8d6b20d7e631054c171abb028a4411be952daffecac7a48b9293485"),
    ("e6-shifted-lambda", "verify-all", "text"): (1,
        "956ad538efb429b21cab1242f3946a1d343e85055c402a4eb2e9dc66820c4bf9"),
    ("e6-shifted-lambda", "verify-all", "json"): (1,
        "192fdb204e442617ba55e2ece243c915124cc89ada83dd4f7e2cedec37e9ad8b"),
    ("g2-m-not-odd", "verify-cartan", "text"): (1,
        "543058f6ca195beef5e615b0ee9d16fe5ca1dcaa5e5b4945a6be17bcb7a6b095"),
    ("g2-m-not-odd", "verify-cartan", "json"): (1,
        "81af7c8ce5706df353fdde3f824bd234af782bd3a7736b0aee3e8596b3589ea4"),
    ("g2-m-not-odd", "closure", "text"): (1,
        "cfcf7fdcd3a92507ef1771aa55d6f35325fb8e825a9b2c02abc0d44c3df7c368"),
    ("g2-m-not-odd", "closure", "json"): (1,
        "76d22f6651f2b614ab170f41e23988066102f1e439dd5246bc3fcf93b412a4d1"),
    ("g2-m-not-odd", "verify-all", "text"): (1,
        "de5d2c1ee5f0e86c598017ce1c0e32418e2715af7c9cf7a8cdc1e06e4ce2baba"),
    ("g2-m-not-odd", "verify-all", "json"): (1,
        "cd2bfe3502bb5affc556affe641b959f9695a3e87b802df00ee28eaf280f83ac"),
    ("g2-m12-not-decomposable", "verify-cartan", "text"): (1,
        "8358cf5dc0ccb28409626fcaa886a26ec5bd5d6039f96821e3276f36e5d68e35"),
    ("g2-m12-not-decomposable", "verify-cartan", "json"): (1,
        "b234eb6fc1fb086ac120b71843faa7cf05cf989a903767e774c48f7eb3fdaed8"),
    ("g2-m12-not-decomposable", "closure", "text"): (1,
        "fe2d3fef53032c97e2ecbd2526b6768538a48bed6f3c01ce5c886151734ca5db"),
    ("g2-m12-not-decomposable", "closure", "json"): (1,
        "650b838ad1bf0bdb143925ccd56f1ecabcf62dc7ad2bb02158df4ff4e743702a"),
    ("g2-m12-not-decomposable", "verify-all", "text"): (1,
        "120498877a1fbbab1ecdfead25d123a6231b5f6af77c8c00a85f1d37eba96eea"),
    ("g2-m12-not-decomposable", "verify-all", "json"): (1,
        "9dbf09e26eda1d06be40beda3165c159e9a9820c6660b7d3997c8a15951d144e"),
    ("g2-laurent-m11", "verify-cartan", "text"): (1,
        "ce2da1a9293fe6a3599340422924506aafba6005cea8c23fb275d2629d42a26b"),
    ("g2-laurent-m11", "verify-cartan", "json"): (1,
        "3a06f99063d53c437be0e81c1e3c4f4b30c2a415302593fa53c073b935b07cef"),
    ("g2-laurent-m11", "closure", "text"): (1,
        "d381b385a0d0d2fa72bbecc73b7ffcb9c2f8482ef41c0a5425f41f4424adb519"),
    ("g2-laurent-m11", "closure", "json"): (1,
        "fce553e3c095009a6b6c88ef0b6f1eb6a337be0245753c0cd561d3368271234c"),
    ("g2-laurent-m11", "verify-all", "text"): (1,
        "fd53dfba2740de05dd8763e3b209cfdf102a709e361665770e2b94f30a6a9264"),
    ("g2-laurent-m11", "verify-all", "json"): (1,
        "84e1d747fbd63321c107687ad85b1ce10869e47bccf5fa2f7ea54f3ea0701078"),
}


@pytest.fixture(scope="module")
def corrupted():
    return {name: corrupt(build_preset(kind, n))
            for name, (kind, n, corrupt) in CORRUPTIONS.items()}


@pytest.mark.parametrize("key", sorted(EXPECTED), ids=["%s %s %s" % k for k in sorted(EXPECTED)])
def test_failing_verdict_digest(capsys, monkeypatch, corrupted, key):
    name, command, fmt = key
    preset = corrupted[name]
    monkeypatch.setattr(cli_mod, "build_preset", lambda kind, n=None: preset)
    kind, n, _ = CORRUPTIONS[name]
    argv = [command, "--algebra", kind, "--format", fmt] + (["--n", str(n)] if n else [])
    code = cli_mod.main(argv)
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == EXPECTED[key]


def test_every_corruption_and_command_is_pinned():
    assert set(EXPECTED) == {(name, command, fmt) for name in CORRUPTIONS
                             for command in COMMANDS for fmt in FORMATS}


# emit-t2 on e6 runs the closure; a failed closure prints its first failure.
# format -> (exit status, sha256 of stdout)
EMIT_T2_E6_EXPECTED = {
    "text": (1, "b9438c1066bdeb189929bb77cfb00226b660b0c7da89679954ea8fc1aceefe4a"),
    "json": (1, "a7d5590658c083b11a3ef122fd40c7f98df0e257f114ce9e5381fc7a3da0c41a"),
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_emit_t2_e6_failure_digest(capsys, monkeypatch, corrupted, fmt):
    preset = corrupted["e6-shifted-lambda"]
    monkeypatch.setattr(cli_mod, "build_preset", lambda kind, n=None: preset)
    code = cli_mod.main(["emit-t2", "--algebra", "e6", "--format", fmt])
    out = capsys.readouterr().out
    if fmt == "text":
        assert out.startswith("emit-t2 e6: FAIL\nmismatch: pair (")
    else:
        assert set(json.loads(out)) == {"algebra", "failure", "passed", "schema"}
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == EMIT_T2_E6_EXPECTED[fmt]
