"""Byte-identical stdout of the matrix-identity commands, pinned by digest.

Each case runs ``cli.main`` in-process and compares the sha256 of stdout and
the exit status with a recorded digest, so any change to a reported byte fails.
"""

import hashlib

import pytest

from wqalg.cli import main

GOLDEN = [
    ("verify-all --algebra dn --n 4 --format json", 0,
     "ab41bb2b4c83f522f4e03da602d1d319f2f65bfb5c5261352cedbedcc9f39ae2"),
    ("verify-all --algebra dn --n 4 --format latex", 0,
     "d5690809cfc2731c80a997e756cce3727cea048e097061bf7db8432efcbbb107"),
    ("verify-all --algebra dn --n 4 --format text", 0,
     "d5690809cfc2731c80a997e756cce3727cea048e097061bf7db8432efcbbb107"),
    ("verify-all --algebra dn --n 6 --format json", 0,
     "764af9b530b130de9884f1dfe3ad434026771c3457069640c3dbf2c543de6364"),
    ("verify-all --algebra dn --n 6 --format latex", 0,
     "3621f14b1a4ed20c4b3f7d220380d273fec46def97ff152c11434bbe98cba5d6"),
    ("verify-all --algebra dn --n 6 --format text", 0,
     "3621f14b1a4ed20c4b3f7d220380d273fec46def97ff152c11434bbe98cba5d6"),
    ("verify-all --algebra e6 --format json", 0,
     "740ec2f8d412752d30acfa88d8c154ad71c43c7dd8bb72ae9cc936e824888aa2"),
    ("verify-all --algebra e6 --format latex", 0,
     "7febeda7c5e7c1dc8451d9aab37c10335f65a6f1b523d82528230254936d338e"),
    ("verify-all --algebra e6 --format text", 0,
     "7febeda7c5e7c1dc8451d9aab37c10335f65a6f1b523d82528230254936d338e"),
    ("verify-all --algebra g2 --format json", 0,
     "fcbb99630d082d712b5f6f9c7162e855afae0787f85642e026bd64b578fb853e"),
    ("verify-all --algebra g2 --format latex", 0,
     "1bb930566652662fd32b81558a77cdf6fa9e289d76d1acb5fe6eb3fc45b83f31"),
    ("verify-all --algebra g2 --format text", 0,
     "1bb930566652662fd32b81558a77cdf6fa9e289d76d1acb5fe6eb3fc45b83f31"),
    ("verify-cartan --algebra dn --n 4 --format json", 0,
     "a101864d467e29240abd584a4c99f4d54e3dd86085643b9da9f3b8f9734387a0"),
    ("verify-cartan --algebra dn --n 4 --format latex", 0,
     "7ba81c3368b8d23068e551246785195c504edc9e9a35762c2c9679771666a2d4"),
    ("verify-cartan --algebra dn --n 4 --format text", 0,
     "7ba81c3368b8d23068e551246785195c504edc9e9a35762c2c9679771666a2d4"),
    ("verify-cartan --algebra dn --n 6 --format json", 0,
     "73c01e3288ab97c3894db45937e146daefb31f2634e7e9210b2a0f3f1b2f3fd2"),
    ("verify-cartan --algebra dn --n 6 --format latex", 0,
     "c31f71295348ce9051d59bccfb2d483ce2cb685bcff608a6d3f94bfd1adc5640"),
    ("verify-cartan --algebra dn --n 6 --format text", 0,
     "c31f71295348ce9051d59bccfb2d483ce2cb685bcff608a6d3f94bfd1adc5640"),
    ("verify-cartan --algebra e6 --format json", 0,
     "ec2a1c142caaad1e32ffcf31f4b83b3b141b95d0c13709c52cd0816cc07d0d03"),
    ("verify-cartan --algebra e6 --format latex", 0,
     "bee0538e659c4677dc0bea1fc2c282d9c9f9a8f1939eb306e8c656e3c377b0e7"),
    ("verify-cartan --algebra e6 --format text", 0,
     "bee0538e659c4677dc0bea1fc2c282d9c9f9a8f1939eb306e8c656e3c377b0e7"),
    ("verify-cartan --algebra g2 --format json", 0,
     "75c15e06ea89a712c3d973b268be80ea13adcaa5a2993adce55e28b2044053c8"),
    ("verify-cartan --algebra g2 --format latex", 0,
     "9da952b2c012dff37712c681161eee9f1164c1a67ef05274436f3b9b2b49d309"),
    ("verify-cartan --algebra g2 --format text", 0,
     "9da952b2c012dff37712c681161eee9f1164c1a67ef05274436f3b9b2b49d309"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_stdout_digest(capsys, argv, code, digest):
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
