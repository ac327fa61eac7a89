"""The integer data of every preset, and the verify_all and bracket reports,
pinned by digest.

Each preset's pair table (Q, N) with M_ij = N_ij / Q is hashed as the JSON of
its sorted term maps, so a changed exponent, coefficient or coefficient type
(an integral Fraction does not serialise) fails.  The verify_all details are
hashed line by line, and each bracket_sum(T1, T1) report as the JSON of its
base coefficient and delta series.  The pair queries, decompose(symbol(a, b))
over every ordered pair of fundamental monomials, are hashed as the JSON of
each (base_coeff, sorted deltas), a Fraction as [numerator, denominator].
"""

import hashlib
import json

import pytest

from wqalg import bracket_sum, build_preset, decompose, symbol, verify_all
from wqalg.exactfield import LaurentPoly
from wqalg.genexpr import build_t1

SPECS = {"g2": ("g2", None), "e6": ("e6", None),
         **{"d%d" % n: ("dn", n) for n in list(range(4, 13)) + [16, 31, 32, 33, 64]}}

PAIR_TABLES = {
    "g2": "0c2d4e593e56ce2136647941ce362b53fa761718a4a85d6503ee36221445d7c5",
    "e6": "e8bd0cde649feeb3f24c8f64338612ade26978300b2b154baaabc4d39bdd6f1b",
    "d4": "2826dde17b3480d8c0c07fc73dd8e71b80111a596f20d70e8c3a32c07e830169",
    "d5": "a86e52a2cc019f8bc482fb2a31012a489f8d150da2a38eabf4af992136d09280",
    "d6": "c70cb37ae031866c07c06a1656cbf9bf368e6317f8b54ddc05654a57942bec31",
    "d7": "f41d62c7ad77fb6487f1353491cf168d8027e1395df36f680dae40f3eaccec9b",
    "d8": "c4924d18a1a435bb0928159afb7506935b2e940abfded7323e8ffd2cb22b44c4",
    "d9": "59a28b8b14e8f6ca3f04feb1d5cff2688142ee7427e473da30e27f39e010dc5f",
    "d10": "98b59c09e88bd42c9dc2d29296a08f4d4e8c7940ed1e755421b4abf9075551d0",
    "d11": "7a699f3e9c3cc0a5ca7ee29865c7ebd463b7f4c9b97fdc245e98282919148b32",
    "d12": "bf0c0650e97cf8af0313e6d3d28da8abb04b51c420ea477dd807919aa6567733",
    "d31": "cf80941f635f4f0bb78f7969e1ba97559a8b848aab64b9474476bedfed877789",
    "d32": "c6cf590c6d9df6ab560b75f5ba6efad21f9a3563c1e1b435d64aa3460c20f443",
    "d33": "9033c406c5472d35ce62beede68110d82c31660d554ba4a7aba12cbd08bde7d1",
}

VERIFY_ALL_DETAILS = {
    "g2": "9f46ff38cc7070a250107be9e37a4ab434ae732e25999cac0d4e73b96bf859e5",
    "e6": "96fbd331d247f12698d7b0282e6910df917f343d232b8f9aad578c0822a28a41",
    "d4": "4febf829e7f717aacac70bb319e5f96902e320874b89b1e0dd9fb7da4b7a832b",
    "d5": "aea0b057567034400d6a9184950619e37ac3a2fd5d8b5376cb983b3e9fdaf5b2",
    "d6": "18045a5d144844fc6bc23b197437dc91fad9ad05756eac096b8ca21ad87b6899",
    "d7": "2a029cc6ba48d7ba15d75266d6115355cbba908420e5bdbb50e7a7a29258dd4d",
    "d8": "dc1c242aef06c4b9062fecb6e23503373d1c63a9725377c2292a2a14fa80514a",
    "d9": "c0f3684e52f31bfec7502e1ffbf96af459701e87fa4759555951f6963f1bbc3e",
    "d10": "eb1a3de0f830c6dfaa5bbfab9925a6a2299e480f8e4fda433e2e1cdf6d4ee661",
    "d33": "2715fd3c4fbe2b30b50de5f6a6a614a09e3569768fc7938213ac84113ce547ed",
    "d64": "dcab45839e19ebd1020bc2ef8882f011e5330f38a054779016e7e30cc38f75e4",
}

BRACKET_REPORTS = {
    "g2": "71fe2b8a62028cfda1d6b31887edb0b5651c1b18cdce3462aa60cb0bd126ed68",
    "e6": "7553d6239322dcbe93618058e3227dcafbf9696e2214f48411392679db73ba89",
    "d4": "3742b532ad0ea98a59185509a2e40ab9b55cde448a72bac8b7fa42f88d7d4d63",
    "d5": "ef70f1c57aa10bc906f181bd0c36d81921db89ccfa278e869c8fb649e12ff805",
    "d6": "a21a042bbf7a08f88e3dd36a0ba4c2e741edc84be3f1ba7ddce5c310b28e0c69",
    "d7": "999f0238f61b9ad4fd4ccd2a0f48d85230c85b9af17d5f46fd06f358196265ba",
    "d8": "25afd30211328551bc73806c14a3fe892d600313713e0397bf9ab6662fbdf288",
    "d9": "a7e98744d84538297fd6d325049716b17f8fb15b31337a601687a71f81002209",
    "d10": "b5f49a191ced8d625f2ece6d059e0ec948e5db9b19bfa23bbba68c74fa30885a",
    "d11": "4fb136c90c7be95870b86cc634b02d31d4cad08856756bdff9c36da1e50bdc38",
    "d12": "c708cb500fee70c3fc2d13710add05ead353e3335b522033f0a60c2a2036b720",
    "d16": "09a161a39be6df054f26f2341c0a867a6cb9bf5ad99b6bd5f9155f8990954dfe",
    "d31": "0fa53e451453b5a294e9ea030db1417d8db5b6062477f8745f3bc16c8f7cbc1e",
    "d32": "529488c7e9effa9ff3b37f654ad775018f84fa307e02ec6783ecb3878159a7a9",
    "d64": "1180f5c50ac2cc0fe59fb01d9cbc1c984ca9371dbdc2f58feaf3b7d9c496d5dc",
}

PAIR_QUERIES = {
    "g2": "72bfcd96415a36c6f61f4f6526aa5b9c3ef909d7c6ae12bdcfb23a658d6ff4f8",
    "e6": "8b44a97bff073dbc824a22d9f8fc538b5adf6031995d4f964beb06df4b8bc961",
    "d4": "17e7a203b91720d58d8f2ba2d2fa3e541f158a6d9f7c11e885d67552c21692cb",
    "d5": "32442f468fb51454feeefbf3825e217924c77bca3996fa085ee5772b55419235",
    "d32": "1131655961ae9d9d6ce1fbe4543b0c6088eb1660a8e3976d21694c73fe19ee15",
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PAIR_TABLES))
def test_pair_table_digest(name):
    q, nums = build_preset(*SPECS[name]).pair_table
    text = json.dumps([q.sorted_terms(), [[e.sorted_terms() for e in row] for row in nums]])
    assert sha256(text) == PAIR_TABLES[name]


def test_exceptional_common_denominators():
    # the reduced lcm of the entry denominators, not the product of their factors
    assert build_preset("g2").pair_table[0] == LaurentPoly({8: 1, 4: -1, 0: 1})
    assert build_preset("e6").pair_table[0] == LaurentPoly({12: 1, 10: 1, 6: -1, 2: 1, 0: 1})


@pytest.mark.parametrize("name", sorted(VERIFY_ALL_DETAILS))
def test_verify_all_details_digest(name):
    out = verify_all(build_preset(*SPECS[name]))
    assert out.passed, out.failure
    assert sha256("\n".join(out.details)) == VERIFY_ALL_DETAILS[name]


@pytest.mark.parametrize("name", sorted(BRACKET_REPORTS))
def test_bracket_report_digest(name):
    preset = build_preset(*SPECS[name])
    t1 = build_t1(preset)
    report = bracket_sum(t1, t1, preset)
    assert sha256(json.dumps(report.to_json())) == BRACKET_REPORTS[name]


@pytest.mark.parametrize("name", sorted(PAIR_QUERIES))
def test_pair_query_digest(name):
    preset = build_preset(*SPECS[name])
    decs = [decompose(symbol(a, b, preset), preset)
            for a in preset.lambdas for b in preset.lambdas]
    text = json.dumps([[d.base_coeff, d.sorted_deltas()] for d in decs],
                      default=lambda c: [c.numerator, c.denominator])
    assert sha256(text) == PAIR_QUERIES[name]
