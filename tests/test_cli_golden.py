"""Byte-exact CLI output, pinned by hash.

Each command runs in-process through ``cli.main``, in text and with
--json, and the sha256 of its (exit code, stdout, stderr) must match the
pinned digest.  The commands cover exits 0-3, the modules B, regular,
W⊗trivial and W⊗regular, every ``verify`` and ``z`` command, ``kpar``,
``groups`` and ``groupoid``.  A refactor that changes any byte of their
output fails here with the command's name; a change meant to alter
output re-pins the digests with ``python tests/test_cli_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import textwrap

import pytest

from parh.cli import main

GOLDEN = {
    "groups list": (
        "6897235a265470cbd64ebb97c4535996a7754002a586def22a1ac7872c87058f",
        "e2deed2566a3e983917b6904edc6b51cc3f52755ebe0f3cf53448a4598609de7"),
    "groups show --group C3": (
        "2cddd4c10353faead1aef2df1e8027547ec3075c9f0d54ef5037946117166628",
        "d968d5952b7d01f178b30bd68a16701b6a83691a5aed3bf86323ca1fc257d36c"),
    "kpar dim --group S3": (
        "058b86db8931855774260eb9854b9bddd634a88226b4b254fd2205b42327ccc5",
        "c60f856e459bf390b0b4913c3449a3ec2c7f01ee47f6113110881b935f2187a0"),
    "kpar basis --group C3": (
        "84195528387041df23ee362de034b40a8388a0974e617972b79d78960dcf4ed1",
        "d6c9de003e14e2773779819cade2a9240aa6183432cf20c503753fe4c1515cf9"),
    "groupoid components --group C4": (
        "4c2d5d999295479040b897202b1c4acc589babde7134c612ef1f2444d2de855a",
        "3f1d0124637d3bfc929591f4c50dec188ba00ca0c9e20a8ca8ec0e68ad85c069"),
    "groupoid components --group S3 --max-group-order 5": (
        "6057adc40dd04d5804297208a41f56228ef36fa40848df2fae08f0471d1b8379",
        "4ffe491625bdc2e98151b6d9b3bdd77ec788c27014fac9fc99297cabd5c2e7cf"),
    "homology partial --group C3 --max 2": (
        "fc59c3e878824bbc1c40b207bd55f8d7a28744e3b01efcf52b8463ac1fe4bd14",
        "ba0f6190abe8b55c6c3d44a557b6f6bdf53c7254aa8199fc75c6c99fd82483c0"),
    "homology partial --group C2 --max 2 --expect-dims 1,0,0": (
        "4c20d4c53317564d1b972b9b420a39ae0e8eb569e9e5d8d844916d667c31db30",
        "1776aece4896a5e603cf3a3e62606ac586570c527dbb9ceb5cdcd55fe6cd53b6"),
    "homology partial --group C2 --module bogus": (
        "33533517564b3811a7c81628553282f1901cb59cba1455b215462c86015fc19b",
        "daf83cc802e188365ed1cf84b8d0ea28b10c4bb2d9e210566742ad81d47c0d3a"),
    "homology partial --group C2 --field F4": (
        "5ace15674d71a3959a8ab0d5e0c28eb60271f5b748328b3aeb06ca7feb66960b",
        "258a193cabe5d981982951ecf4df1a1876f7d7bd8dabb379a4827d66f110a884"),
    "homology cohomology --group C3 --module regular --max 2 --field F3": (
        "828f5de75c9c3c144eef2ee15736113c98b386c9ba0b6418fda77383c154cd95",
        "fcfca4f2a04a45eec8adfd499193cc7b6fc54ddc48dd8c3c5096bfa9ad38f68b"),
    "homology partial --group S3 --module regular --max 1": (
        "ecc314356786a82e816e7c20603e70169d7f2e07f80b45e1734f075e9a7cc23a",
        "3bb81263c8b3f2ab4051cd09c33106130be80298f6b128879b1b2bac298c8c59"),
    "homology partial --group C4 --module W⊗trivial --component 2 --max "
    "2 --field F2": (
        "b10b5f97168ea3bfbfa766078e23e26df8acd10cd4a50ad819dbbd82c33772c6",
        "20117455828f16293a6260144c2d4f419c467673b882559257aa85e7eef64e83"),
    "homology cohomology --group S3 --module W⊗regular --component 3 "
    "--max 1": (
        "deaf4f44ac03b7313a16d2f7b6128ba3be1f206b5885b89cb0a5ffe1da6924ea",
        "4a809d8d8806375b7c160be469d11c2e7a0ebfb1019d952312c4291022dc60da"),
    "homology partial --group S3 --module W⊗regular --component 14 "
    "--max 3 --max-columns 10": (
        "5f1e1a0050687341e391effaf6cc24ba8c57f6550ad577295c1e5128b1c38658",
        "7f4a030b6444e4c528f28e7a7ba167761fe4e24b4ebedb4f28914ec25638c266"),
    "homology partial --group S3 --module W⊗regular --component 14 "
    "--max -1 --max-columns 10": (
        "db79aeb05d5ffa0da20db3b7571bdd89db0cf0341fe1d123a24662bc19a6945c",
        "9a0673769239937c25ea288f5f88faa43e1544cc44cbeb1ae02bd1c2524ac7c8"),
    "homology partial --group S3 --module W⊗trivial --component 1 "
    "--max-group-order 5": (
        "6057adc40dd04d5804297208a41f56228ef36fa40848df2fae08f0471d1b8379",
        "4ffe491625bdc2e98151b6d9b3bdd77ec788c27014fac9fc99297cabd5c2e7cf"),
    "homology partial --group C3 --module W⊗trivial --component 9 "
    "--max-columns 1": (
        "9412ebee5d845c30d1ff1d2b10d81996a57730a500dbe74c63bd6ceb68793ab4",
        "93d6e8b2d1d0e8cb7cc0774cdb2221418970215b12e536ff8f146a8483c24dbf"),
    "homology partial --group S3 --module W⊗trivial --component 7 --max "
    "2": (
        "ef36ecd4482f66417aed4081f92c3e75a2dfc6e352fd61be3e8dee07fd3c3288",
        "36c1b9ab9d3dec86091d594911014b2cd47deee8ec641388c9dd7750d92af315"),
    "homology cohomology --group S3 --module W⊗regular --component 8 "
    "--max 2": (
        "5ba7df039b8e0597b37903dce0125e32b92a8fe71d4e1efabdea039042c38e70",
        "531378b1948542af7c0cb1fb022d708e5fa7f8ed4b76772ddddb20fdf5b3c23f"),
    "homology partial --group D4 --module W⊗trivial --component 8 --max "
    "1": (
        "f2d30ce2654b48b2dd5f7ac6323a7b6c471522071acd3213a87fbbcfc3e90be2",
        "796446f8b224827fd71e3e23fcce6efca594f63ddffc71a3d0586d3120226cb2"),
    "homology cohomology --group D4 --module W⊗regular --component 11 "
    "--max 1": (
        "05280f46990afc0464da8d4014b3e9c6b1bc83c22ed92532a6cdcc6c8a2978ae",
        "56ea9dfea2471821c97cd5a3b95b1bba536e4bd261b0ee3e2dc63f87a99b0698"),
    "homology partial --group D4 --module W⊗regular --component 35 "
    "--max 1": (
        "c2af09f46f1464cf0f71754ae781ca68d465726826426fce11c64f870c5133e4",
        "640954898265b3edb6fd836a0fde7a17245a04c8767d150243394f4d1e1f3fe3"),
    "homology partial --group C4 --max 3 --max-columns 50": (
        "e7760faeb1d5b247bf32ece9b06dbba5944ea05a2a98f37813c6736f531e5d48",
        "f495e351ca2bc7bd50af5933b41cd4ce90611d68768419459193f42baf58bc03"),
    "homology ordinary --group C2 --field F2 --max 3": (
        "78f6097ddf1e2a050a6ecdf16f1f5457bcf425aea2e0ee024cca575bb5717157",
        "76045e7046e6a12744922b62ca09a6df72e751dcfd9479afbf4637b589ffb00c"),
    "homology ordinary --group C3 --co --rep regular --max 2": (
        "347edd19eb2566d1da2fbe123a59cb8039238303516653f7c04bb0ee198e575e",
        "23fdc937a8b75f051343ebaf9e31f3c4a5a675e19d062340e111c47e4a4650cf"),
    "verify theorem-a --group C3 --component 0 --max 2": (
        "0476189d53781e7ecc83dbb6aa0548bff0aea59d3a0000d101a8baf0c03e4e43",
        "c7be20ee0b24eb8262c9caa7098de9ba70d3c52d50123fb35b07cc61ba347ea1"),
    "verify theorem-a --group S3 --component 14 --rep regular --max 1": (
        "74d98aa7c0e2146d86c7c86bc064fb8adfe2a5fe7e00fef5ffe2894feecfce2b",
        "03479ddf46676e73bd45f97b16fd3ef09e9d877ea6c36008a464b3ee4b7bc8c4"),
    "verify theorem-a --group S3 --component 14 --rep regular --max 3 "
    "--max-columns 10": (
        "5f1e1a0050687341e391effaf6cc24ba8c57f6550ad577295c1e5128b1c38658",
        "7f4a030b6444e4c528f28e7a7ba167761fe4e24b4ebedb4f28914ec25638c266"),
    "verify theorem-a --group S3 --component 5 --rep regular --max 2": (
        "2b4641dce2acf14d45eb4204b31f7d8d27dfe890e3e69e077a20e65f74e8a89f",
        "7a41aa7fe6a8ee50eb38e054e068acef7fc84d56ce6513742c91f55d8f2df12c"),
    "verify corollary-b --group S3 --max 1": (
        "319db1e444c2916865d3a0861b8e77f9ff174097f333847b238779a836d2f61e",
        "5409952c65d2611a123f7298f14df775c8447beefb4e3ef1a5caa8f20a38a988"),
    "verify corollary-b --group C2xC2 --field F2 --max 1": (
        "2ccbf3bf9bbcc5b7b59db7f9486c3fa49c026d94e0527508ea9152e039ba9f7d",
        "7a7ba08a3c79d9289db79a007533ae3d139078e0546f589f5cb2c0b233a53f73"),
    "verify corollary-b --group Q8 --field F2 --max 3": (
        "4e70c53248e6129a800f5e658e2a48c5884c9ae04eaaf066eaaf0e7778c236ef",
        "3190c0ef94ed41f1681ee0e31588bc884b9ec7ae896aa6707af60e493f151ca4"),
    "verify corollary-b --group D4 --field Q --max 3": (
        "c63061e8c3e48a845779a4b177cb154b4f7ba58733e9c8c2ddf1f7bc4740f729",
        "5003544093342e7695e25f0f45744bdeaa6c719571ba383e9849831fd2cf6b66"),
    "verify section5 --group S3 --field F5": (
        "0a688d06a8595c10d56124393b922e4cc52d8328d098c02e16e1339939784bd4",
        "b72938002b5536877037f3f016f8ea20980e81a8654f4fa4449b8a32541dfbe4"),
    "verify section6 --group C4 --field F2": (
        "d7f5eb6edb013922d7bceec7f788a32d1a03452157582be468e5fb60c9ce7a8c",
        "a7bd2a4360c88bdbf50b69488287ddf41bda74530ee4a433d56acf99cb57d338"),
    "verify section5 --group D4 --field F3": (
        "405d8f0738ffcb92f9de2e6418ebcb5c9edcd9707eb882946db23a54599891fe",
        "7f8556debc371d417233ab5a2dbfc38e5dbb69696cea44f7e271e018f8d3fd30"),
    "verify section6 --group S3 --field Q": (
        "cf68fde622397a146818a10e809786fe329f661e688b437a1cc9e2a94bde6d66",
        "97e02f7f5acc99ddcc5f2564d5fbf9b6200a54d004def0f01075a73588e0eddb"),
    "verify kpar-coeff-vanishing --group S3 --field F3 --max 1": (
        "28df6443722c0a065fa035793f7a5f9740988c1934673ec609fcb87ebc37f2b3",
        "9285adfd5f17ce69998a6211454f4325f4532b3d12019cda22cca76139e6c8f8"),
    "verify kpar-coeff-vanishing --group D4 --field F3 --max 1": (
        "0749f53517eb7fb5f0389abbe76b6b804f512ada1ea9f6a6592a3592880d68ee",
        "61d581ec6093d7245f5168825c8abee169dfc9903224ea1ff70a9197b8f96a6b"),
    "verify kpar-coeff-vanishing --group Q8 --field F2 --max 2": (
        "219f91099f48fde03d1ef7460a93430375fb03502a3a4e512650115c08908c7c",
        "b51f893666ac0f6854d681d77975686e48e359010384d9999148762333b7773a"),
    "z relations --bound 3": (
        "9b42e666e906ac49b980238befb64115d0b05f5f5f2aa08a4cb11a69094ff684",
        "c47255f76dcf8867c51f2182c4a2edfd70ed15e2a462508373cc03fc82e8ea2e"),
    "z quotient --k 1 --bound 6 --field F2": (
        "f7f7244c077c1cd610e9c4d84865718902b550f69a6f7b6d126cce6dd574f9f0",
        "21f5679b390314087e16342031ca1fe3968cdcb4769a56786e3237108af85603"),
    "z quotient --k 2 --bound 8 --field F3": (
        "713adb13ae25a7ec1fe85c8d61461a047d67f0f8100a1acbe94805876bc3bf69",
        "67a19fd7e5f4ed32f75caab1b92c5b55397e95567fa077a711bb06e31267eaf2"),
    "z quotient --k 4 --bound 12": (
        "cd31fc0837f8e864a1f2bfe0e5e14922a3838bf3b142945efc1365622a7d613c",
        "49c33d1887ed73a93b0da30431a7107f3628ddf3415cf2b35ad95230d0d2e3b6"),
    "z cancellation --count 20 --seed 5": (
        "8d132b759a76cc141b12423c5e10d1497784f72dae71472c46a0fc79a7ebadeb",
        "796204f60c85e3100275070d02c9f38d192b175365177636b7d738dd50992a60"),
    "z cancellation --ring C3 --count 10 --max-k 3 --seed 2 --field F5": (
        "b225ea515489ffe90859eaeaedbb2aa73c46bfd804cfc6e96584fcac9cf24dcd",
        "86cb2b86b14b3f06a8d5c6838a00f64bf494325d448542294748ff67cb4aaffb"),
    "z cancellation --ring S3 --count 30 --max-k 5 --field F2 --seed 3": (
        "da24a3dad67cbbc8e0ce53a194bf003635bd6667c6c6cbf78a9a22b2d742cf79",
        "cbc68644a4692e797381eb5d2b117a06315a4b8233c8e13cc6d145ced8f9b20f"),
    "z cancellation --count 200 --seed 1": (
        "52930a56b5d45bf408deea54cf1a64b09b38a030400bf4c85728cbc03fd07e36",
        "64f63a1442d66713cf06dadbabb188e3df047b249bb6c6c6c73bb152d952cad8"),
    "z ig-decompose --count 10 --bound 2 --seed 1": (
        "583d1317cec339584682c447c8376f77bd13e36b5e7b3bb15db06ca96af3337f",
        "ab70d79ebac0155b4f7ef40f074273023469692f00297d46a005bbbb28bd3003"),
    "z ig-decompose --count -1": (
        "8787345315cce60858cd22fb59cb4501df296d383d700e8c12d53b40db2836b3",
        "a236096b4f5d5a4bcc78c0f7f1540ca55fd5ae96044a622f5b6af1cf7f0fbe2e"),
}

MODES = ("text", "json")
CASES = [(command, mode) for command in GOLDEN for mode in MODES]


def digest(command: str, mode: str) -> str:
    """sha256 of the JSON list [exit code, stdout, stderr] of one run."""
    argv = command.split() + (["--json"] if mode == "json" else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("command,mode", CASES,
                         ids=[f"{c} [{m}]" for c, m in CASES])
def test_cli_output_is_pinned(command, mode):
    assert digest(command, mode) == GOLDEN[command][MODES.index(mode)], command


def _pinned_source() -> str:
    """The GOLDEN dict with fresh digests, as Python source."""
    lines = ["GOLDEN = {"]
    for command in GOLDEN:
        parts = textwrap.wrap(command, 66, break_on_hyphens=False)
        parts = [part + " " for part in parts[:-1]] + parts[-1:]
        lines.extend(f"    {json.dumps(part, ensure_ascii=False)}"
                     for part in parts)
        lines[-1] += ": ("
        lines.extend(f'        "{digest(command, mode)}",' for mode in MODES)
        lines[-1] = lines[-1][:-1] + "),"
    return "\n".join(lines + ["}"])


if __name__ == "__main__":
    print(_pinned_source())
