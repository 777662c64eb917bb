"""Golden SHA-256 hashes of the deterministic CLI artifacts.

One spec per family at n <= 12.  The `gen` record, the `dual` hex and the
`anf` text must stay byte-identical across refactors; a changed hash means a
changed output, not a changed test.  The `orbits` listings at n=12 and
n=20 and the `spectrum --kind both` text of the G4K (n=12) and H4K2 (n=10)
specs are pinned the same way, and so are these reports with their timings
zeroed: `verify_fragmentary_lemma` on one multi-gamma spec per modifier set at
k=1 and k=2, `check_table1` at k=1 and k=2, and `check_su_conditions` on each
of the `SU_CASES`.
"""

import dataclasses
import hashlib
import json

import pytest

from negabench.cli import main
from negabench.core import BitVector
from negabench.oracle import (
    SU_CASES,
    check_su_conditions,
    check_table1,
    verify_fragmentary_lemma,
)
from negabench.subspaces import GammaSpec

SPECS = {
    "G4K": ["--k", "3", "--gamma", "000101", "--gamma", "110010", "--gamma", "011110"],
    "G8K": ["--k", "1", "--gamma", "1000", "--gamma", "0110"],
    "H4K2": ["--k", "2", "--gamma", "1000", "--eset", "1", "--gamma", "0101",
             "--eset", "B", "--gamma", "0011", "--eset", "0"],
    "H8K2": ["--k", "1", "--gamma", "0000", "--eset", "B", "--gamma", "1000", "--eset", "1"],
    "F2RS": ["--k", "3", "--p", "100000", "--p", "110100"],
    "F2RS_SET": ["--k", "3", "--a-set", "110000", "--a-set", "101010"],
    "F2RS_ORBIT": ["--k", "3", "--gamma", "111010"],
}

# (gen, dual, anf) per family
GOLDEN = {
    "G4K": ("3c26de09dace40ca8569a2bd3f3fb628075ae481d575622e1c7843e7ec1e0a59",
            "1c1c455dd5abf62827c885a89b7be8db94239cd4c5e7aca25660fe8245235fd5",
            "283d3d4c795caedc947526af1275298d79594ae792bface3fd2e22945c8e12c5"),
    "G8K": ("3f9119dc39641860f638cc392e0fbfbceddc0965fa738e2a427fff8c3c1afcd7",
            "0201cc616ed2e90e18432f374628239cfe3ad19feddf48704fcfbf52f8dbfc51",
            "96b9be5ca599da7fb2043f55d4f43e71656dc2d2725874537e8cf6dadb8da848"),
    "H4K2": ("6b4d7598caf12f93e656f42f59ffadd85b98e07edea8101e85268679e9a5b333",
             "33fff66a6c0335fe7389f8f5e791d5e161cb02806b8c8a79b5e8a0c84de5df2a",
             "484214f26a0a15c9d917225abab7ae70cd5dee9a964f4886fb73e5708429e5a1"),
    "H8K2": ("a9ef4a0e5aaeb8569246f5a8a475300f030f60c47a4d687533395107bdde34e3",
             "34a25fe2f6b9d5af29fdbb1a5f937cdfe9095450b46afb7fbe9300d9603d11cd",
             "f8424db70ad4db716245af29333dcd1a5ca10975680c79c312acefd92decb6ae"),
    "F2RS": ("ad0e0cc112e66ab4a280adda1cc4f973d3ff8e7b35924469eb11d019cc68b9fb",
             "a618f01ad871d3620587a9d61f7323f92efaa5ddfc9cbf48e147b9669520554a",
             "d1faf69d8845bd1b5449d1d7dd8a87f2f8efef6ebfd344b233fe120d3b4f0457"),
    "F2RS_SET": ("c36a18221b5808f9d80dfe37720390cb9b1d14158794ff0311eb9ca357eae922",
                 "a04f3d3b2eea52c07395dd131d79c8a9349922c628c1bf8644691a9123522e60",
                 "46e32335a4d5e200db8af76e169ed04d201895aa7fb327afefbe03d18fe8c454"),
    "F2RS_ORBIT": ("f21bf8e72900293219d3cccaea16c2a7448f4b8cdb0a35e2ec0042d80a27bed0",
                   "d4b7c1896572ea90c6616ed0ce1a4dd52995b7ed066a48b98931369c65db9c16",
                   "2c0362ed3c1bced74bff9c66bf18f0f3de77067d04256ee6bd5e381d5c4fbe67"),
}


@pytest.mark.parametrize("family", sorted(SPECS))
def test_artifact_hashes(family, tmp_path):
    got = []
    for cmd in ("gen", "dual", "anf"):
        out = tmp_path / cmd
        assert main([cmd, "--family", family, *SPECS[family], "--out", str(out)]) == 0
        got.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert tuple(got) == GOLDEN[family]


SPECTRUM_GOLDEN = {
    "G4K": "0275bd4b16691d0061080ea31d02e2078d77814da8ae754d55544f01bd451930",
    "H4K2": "1cdfccd171c580b80f91cd6f4608fd8801cbb870eb01e756b93ef071c76b32ff",
}


def _hash_of(argv, tmp_path):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


ORBITS_GOLDEN = {
    12: "9ff51d1816b363f333af37cb3021aff91f087d8e091e5140fb864cf37ae9a273",
    20: "8a0f8a90fe009e8a187fb998c2e2bc9676b3fb3b77840565b6ad25a45ec1fe31",
}


@pytest.mark.parametrize("n", sorted(ORBITS_GOLDEN))
def test_orbits_hash(n, tmp_path):
    assert _hash_of(["orbits", "--n", str(n)], tmp_path) == ORBITS_GOLDEN[n]


@pytest.mark.parametrize("family", sorted(SPECTRUM_GOLDEN))
def test_spectrum_hash(family, tmp_path):
    argv = ["spectrum", "--family", family, *SPECS[family], "--kind", "both"]
    assert _hash_of(argv, tmp_path) == SPECTRUM_GOLDEN[family]


# One fragment-lemma spec per modifier set at k=1 and k=2: multi-gamma sets,
# every E symbol, the two-gamma S3 pair sharing gamma_1 with E = ('0', '1'),
# and S4 with E = 'B'.
LEMMA_SPECS = {
    "S1-k1": (1, "S1", ("10", "01"), None),
    "S1-k2": (2, "S1", ("0110", "1011", "0001"), None),
    "S2-k1": (1, "S2", ("1000", "0010"), None),
    "S2-k2": (2, "S2", ("10000000", "00101000"), None),
    "S3-k1": (1, "S3", ("00", "01"), ("0", "1")),
    "S3-k2": (2, "S3", ("1000", "1010", "0111"), ("1", "0", "B")),
    "S4-k1": (1, "S4", ("0000", "1000"), ("B", "B")),
    "S4-k2": (2, "S4", ("00000000", "10000000"), ("B", "0")),
}

LEMMA_GOLDEN = {
    "S1-k1": "51cc4a969b58a84e0f741391b9ac7b6a87bab7044e276c17a9eb5c9478cfcd90",
    "S1-k2": "706164367d2863906caf70fbe233146e950998c338da4a403dfb0333338abba9",
    "S2-k1": "cc9af42dce027734e3ba160e98d97eb614726b35bc7c546013d8fd46de0ab171",
    "S2-k2": "45fef8714f4f58ddcb9b93cafef3859e6caaec5f102e31c0b5a1eed6ebfbc23c",
    "S3-k1": "e8e2a660dc159fd1753702c69656d0cd9687747e03e5b3dcd05d331f230ba606",
    "S3-k2": "e599e7c1473192c2b789506f1fe5080901735236743b1e83a9deb424bd95219c",
    "S4-k1": "39f61e2dadcaf2e860159a01454918c5d0a2029f1f00b77ead7570796f6a7319",
    "S4-k2": "cacd18c7f28eb95d39f435da762b64d9b544072b2afca0a78d557dc1a3905b9d",
}


def _report_hash(report):
    d = report.to_dict()
    d["elapsed_ms"] = 0
    for check in d["checks"]:
        check["elapsed_ms"] = 0
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(LEMMA_SPECS))
def test_lemma_report_hash(name):
    k, family, gammas, esets = LEMMA_SPECS[name]
    spec = GammaSpec(k, family, tuple(BitVector.from_string(g) for g in gammas), esets)
    assert _report_hash(verify_fragmentary_lemma(spec)) == LEMMA_GOLDEN[name]


TABLE1_GOLDEN = {
    1: "4c13ae727edbfea50d19717bc82010c6ea49e2350b9582add75cdfbdc75650e7",
    2: "c6480b2b4351c25ed01bd03251e5fd06beba0d882a8c888009988deba305df22",
}


@pytest.mark.parametrize("k", sorted(TABLE1_GOLDEN))
def test_table1_report_hash(k):
    assert _report_hash(check_table1(k)) == TABLE1_GOLDEN[k]


SU_GOLDEN = {
    "g0-diagonal-subspace":
        "403053cd4730c411af31bfbf3ed5e325c366b9154e5f0cd6ce666c684ae33fb8",
    "g0-pair-repetition-subspace":
        "667866b966dc228d7bdb755cc96136357bc90ff79e4d98594c4c4b4d303309b8",
    "h0-diagonal-subspace":
        "33b9d33456ea9eb309b6c6e09e47a3608f6b16513fbb8339b95d3234e5dfc156",
    "h0-pair-repetition-subspace":
        "825d24c04b22b44ff2a5024a6098aab87f1089bd5c92421450eedcaa0166d460",
}


@pytest.mark.parametrize("case", SU_CASES, ids=lambda case: case.name)
def test_su_report_hash(case):
    assert _report_hash(check_su_conditions(case)) == SU_GOLDEN[case.name]


def test_su_case_has_no_separate_dimension():
    # F_2^m is the domain of phi; a second field could name another one
    with pytest.raises(TypeError):
        dataclasses.replace(SU_CASES[0], m=5)
