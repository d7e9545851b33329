"""Pinned bytes of a streamed checkpoint's chunks and of the dataset
every writer produces for the same tiny campaign.

The sha256 of every file under ``chunks/`` after a
``tiny_stream_config()`` campaign streamed in chunks of two rounds (the
chunk manifests, column files, ``identities.json``, ``transfers.jsonl``
and each chunk's ``state/``), and of every file of the dataset that
checkpoint finalizes into, which a batch ``save(passive=False)`` of the
same study must also write.  A resumed run reads chunks an earlier
release sealed, so their bytes are part of the format: any change in
how a chunk or dataset directory is written shows up here first, with
the files that moved.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict

import pytest

from repro.core.pipeline import StudyPipeline
from repro.core.streaming import (
    finalize_streaming_campaign,
    run_streaming_campaign,
)

from tests.streamutil import tiny_stream_config

CHECKPOINT_EVERY = 2

#: sha256 of every file under ``chunks/``.
CHUNK_FILES = {
    "000000/MANIFEST.json": "797930b2840746845ca6c22fe4f1064651d8f5b763b465a8639ecf26d23da67b",
    "000000/identities.json": "19becd1d8fc46fcf045b7e0bb6cbbaa62f34a155592af85bdc168c4f3f9095cc",
    "000000/state/STATE.json": "5c619710a58a48044ee71ad7eae49aef6ac7ad9dad91fc5f9d61cb7d2aa323ae",
    "000000/state/tables/identity_counts/count.bin": "5b1156ff01f0826ad836d289a4e060e81e7ea667c5b6089b4a5f7a6b3f22ef7d",
    "000000/state/tables/keys/addr.bin": "577dadf400ef7d4a7fd36dcd5c03a0f52ed54ce2201aac277d7fbb6feff21447",
    "000000/state/tables/keys/round.bin": "c1dcec10bc73ba75c90a2517565f2cfe76f613b49f94f8c2e04cae82c93486cc",
    "000000/state/tables/keys/vp.bin": "df1b2de476f51c0bfc820d58efcc49f005feb0a87e037c6885dff8b2f093abf7",
    "000000/state/tables/stability/addr.bin": "bb1f89118293b1e8092dc3742815b29ef1ea030069148782b88dff710df3b118",
    "000000/state/tables/stability/changes.bin": "f205dfbbcad10630cd134ba33240f4234757b4748b3ea47720ce5495c0d2cc04",
    "000000/state/tables/stability/rounds.bin": "3ad90a8e18776cddabf9e9ad3d6c82823bba231da307b387064d4dd0075780db",
    "000000/state/tables/stability/site.bin": "c2fb7e08a9b21b14708395811fe018e59076d63c3ebee8348529a14a3fdb7743",
    "000000/state/tables/stability/vp.bin": "e1900f555e6e7de0123ee673e2657bd3efc803a94fb230e7b702fb15071ad543",
    "000000/state/tables/strings/end.bin": "5c4cad8fb9a104fdb93b43e4f8b956d954ba9d04294b37effd6d54274ec238f7",
    "000000/state/tables/text/byte.bin": "23e38554a25d041124d842acfdfe8f5cacdf9b721275978cecbbb0069eba0d3a",
    "000000/tables/probes/addr.bin": "5f5f97ab8311bc80ea85445d01ba8dda8e0be8f0450f56d7c99ef88e5eb2e110",
    "000000/tables/probes/closest_km.bin": "3b8dc946679d7fe795771ad7be0b933fae31a475f1ae16858c0826883bcd238c",
    "000000/tables/probes/direct_km.bin": "81e22bdeb544546a1cf7ae43238abd675228e7d5127d9f1d186a43d0409a8cb5",
    "000000/tables/probes/peer.bin": "880a7a39962a28b8727c09c54239349f58bf6141e5f021c075a1a1f44aab0351",
    "000000/tables/probes/rtt.bin": "4aee5ab374cff599c06834779ac4ef2f3539a0b12b2e2a3c9773b8ad8e250536",
    "000000/tables/probes/site.bin": "acb1b38423ff0f31ac4f047c7e9ae3595ac0a5d4a3fd511c9dba27c423bb6825",
    "000000/tables/probes/transit.bin": "8d7f0327ae91e4b45366d81cd9efdb3c52593c40267b32ea50d14b6b71ca2fcb",
    "000000/tables/probes/ts.bin": "f692318869420d2e53c7b626992c0055acc3bf8b1d499b9a932d82fe758668a3",
    "000000/tables/probes/vp.bin": "d1453a73261093bbaa52986896de41d6780663f22324a8c72fbb12c0aca23413",
    "000000/tables/stability/addr.bin": "bb1f89118293b1e8092dc3742815b29ef1ea030069148782b88dff710df3b118",
    "000000/tables/stability/changes.bin": "f205dfbbcad10630cd134ba33240f4234757b4748b3ea47720ce5495c0d2cc04",
    "000000/tables/stability/rounds.bin": "3ad90a8e18776cddabf9e9ad3d6c82823bba231da307b387064d4dd0075780db",
    "000000/tables/stability/vp.bin": "e1900f555e6e7de0123ee673e2657bd3efc803a94fb230e7b702fb15071ad543",
    "000000/tables/traceroutes/addr.bin": "bb1f89118293b1e8092dc3742815b29ef1ea030069148782b88dff710df3b118",
    "000000/tables/traceroutes/hop.bin": "ebd846e3c739e725e069121dac3579094443a252ea6da3bf6956203c0ff1ca1b",
    "000000/tables/traceroutes/ts.bin": "f34c88462964a02fbb65506a5763b18d711e525b9fe32a1e65022e180b33fdaa",
    "000000/tables/traceroutes/vp.bin": "243268119be7a3c610f4e9344219fe7164479672a50c050d85c8c0d1a9376f77",
    "000000/transfers.jsonl": "fbd1d805954eabc9c75f071fec064f80ce7cad41be35ad819b33589925adb853",
    "000001/MANIFEST.json": "fdcb1e1d99349c1b775f9b3542c299e8566b34c542f98cb6e91603c70d111cbd",
    "000001/identities.json": "0bd93dc9c3da7cd27b65883d7ffc718c314eb6bfc862bebf5212f41be57f3d23",
    "000001/state/STATE.json": "9e07968c1938db24b72f66e82d732e54f205eaa10d669ee6dab334fdc9643df1",
    "000001/state/tables/identity_counts/count.bin": "1a967d7ef8585e5ca66b712f7e94334ab2896e624870d7381eb99c04dd3999fc",
    "000001/state/tables/keys/addr.bin": "9cbfbad0884368bad359ccc9d62512eb43d6322e2f0d9b649624463309be8058",
    "000001/state/tables/keys/round.bin": "3b4e8d5b2f84edadeca626ca0451b30eacba16b077ed750c9fb3d1ebb29ba892",
    "000001/state/tables/keys/vp.bin": "69849d1793eb3e6a7e51d81110a1e6ee51061d49b9eb1d4b5a8ab5cd09204fbf",
    "000001/state/tables/stability/addr.bin": "bb1f89118293b1e8092dc3742815b29ef1ea030069148782b88dff710df3b118",
    "000001/state/tables/stability/changes.bin": "39cb1b7a327694cf6dc77595edbd00c341af2e1685530a4e10962e95bfc343a2",
    "000001/state/tables/stability/rounds.bin": "2ffd5226905755d9d9d07c1534ca7bc510fe9493a45c73f5ee1448638ba3ce88",
    "000001/state/tables/stability/site.bin": "0d726e6086d2038efe3033cecf0b2fe4323ac68585bb702c71b82f051a3f0bd2",
    "000001/state/tables/stability/vp.bin": "e1900f555e6e7de0123ee673e2657bd3efc803a94fb230e7b702fb15071ad543",
    "000001/state/tables/strings/end.bin": "2a0d21af169667cff6a50e6a739d245b991ff59b89a9bd789c445bc618d3275c",
    "000001/state/tables/text/byte.bin": "b58d15067d2031b637f27dc467c331896c72596e7baa3053bfdb46942c1786af",
    "000001/tables/probes/addr.bin": "5f5f97ab8311bc80ea85445d01ba8dda8e0be8f0450f56d7c99ef88e5eb2e110",
    "000001/tables/probes/closest_km.bin": "3b8dc946679d7fe795771ad7be0b933fae31a475f1ae16858c0826883bcd238c",
    "000001/tables/probes/direct_km.bin": "9e43ac85e53baff68f9e63dcd83e045200afa456825ded991a1bd8cd4ebd4e3d",
    "000001/tables/probes/peer.bin": "98004d3fae6d3d1811dfcace11b1054ae7866d8a8d69660e88f3bf2f76fdb1a8",
    "000001/tables/probes/rtt.bin": "c31ed806f5b7742240e404c74d3ef18732a0ee944a0360ae4d93f715f3de16a6",
    "000001/tables/probes/site.bin": "b3d4c43d5e9d86b568df1f5a569bf9e5099e4db88ea0e2778b03cd73f0106ca9",
    "000001/tables/probes/transit.bin": "694f52a90a4d8eac0090e665ac82b7caf927d301854952bc9845bcc883c4f1bd",
    "000001/tables/probes/ts.bin": "18a3f6f8ae84dab7009a7281a13b58c6254cdab48023535867793db284d14843",
    "000001/tables/probes/vp.bin": "d1453a73261093bbaa52986896de41d6780663f22324a8c72fbb12c0aca23413",
    "000001/tables/stability/addr.bin": "bb1f89118293b1e8092dc3742815b29ef1ea030069148782b88dff710df3b118",
    "000001/tables/stability/changes.bin": "0e4772b3a79e534b811054166dc149874fa924ad2af0c7837bb753e4a498554a",
    "000001/tables/stability/rounds.bin": "3ad90a8e18776cddabf9e9ad3d6c82823bba231da307b387064d4dd0075780db",
    "000001/tables/stability/vp.bin": "e1900f555e6e7de0123ee673e2657bd3efc803a94fb230e7b702fb15071ad543",
    "000001/tables/traceroutes/addr.bin": "bb1f89118293b1e8092dc3742815b29ef1ea030069148782b88dff710df3b118",
    "000001/tables/traceroutes/hop.bin": "51ed78c8c34f7c632583c2ed5e1fe4aed651236ddd31729f7597a56b97547383",
    "000001/tables/traceroutes/ts.bin": "df470217b87f1a301229ac919e0d0a3072b7f624722b18f7fa9bb4907bcd6eaa",
    "000001/tables/traceroutes/vp.bin": "243268119be7a3c610f4e9344219fe7164479672a50c050d85c8c0d1a9376f77",
    "000001/transfers.jsonl": "e74484a6efc881d20c27203cd22398df54c2e1890d9437865ea0f27062f36a3d",
    "000002/MANIFEST.json": "85eb94b8bd873767e5339726cb5faebc0bb253386acddf5c1b64bf3fd134762e",
    "000002/identities.json": "cb3fe8738d712d824e3c82418968200f5629630a0860b7deeb7059df2a49c8f4",
    "000002/state/STATE.json": "3d75f59369363ea938c8cf67d2039c13d321b1d5f2ba1bf7db9798abac84ce71",
    "000002/state/tables/identity_counts/count.bin": "fe6f65b90a66144f1b04ce36334fc29de95a76fc2b03af2af790b0b8118187de",
    "000002/state/tables/keys/addr.bin": "19526688dddd165386f2a54664595244ea91749ca898a75cc362a37e09cea045",
    "000002/state/tables/keys/round.bin": "68bed9b0255a7ce475c1b3f39ab46aefb4fffe6b4069df2e48ac9f0a3d8c0dd5",
    "000002/state/tables/keys/vp.bin": "c2445aba0041426a3815c132d41e43f2ce290f5fcc29861b4dc43f4d1f6908a5",
    "000002/state/tables/stability/addr.bin": "bb1f89118293b1e8092dc3742815b29ef1ea030069148782b88dff710df3b118",
    "000002/state/tables/stability/changes.bin": "fc816e00e11dedcc8beb23815cd90cedaf2786d397faf16ef2654148fcb5c935",
    "000002/state/tables/stability/rounds.bin": "dfa9e878d588818f7ff248cc51147ac32c268243a58d02929772581db6df1cd7",
    "000002/state/tables/stability/site.bin": "0db0f822e67695258f72fee79053d6e6cb837c52b22d876ef436841753ececb8",
    "000002/state/tables/stability/vp.bin": "e1900f555e6e7de0123ee673e2657bd3efc803a94fb230e7b702fb15071ad543",
    "000002/state/tables/strings/end.bin": "5a1c539d1b4f23e8eecb7345f757c8790f03ae191a3e8c0db6716a4e1d68a86c",
    "000002/state/tables/text/byte.bin": "57336af0f225722bae3e55a7d6bd65ffce8528adf6f04aa4b269f2b97f755c5d",
    "000002/tables/probes/addr.bin": "bb1f89118293b1e8092dc3742815b29ef1ea030069148782b88dff710df3b118",
    "000002/tables/probes/closest_km.bin": "12a95606f11e526d5a7e30c27fd7701c209dbae3285a40d40be41e1018ad4df4",
    "000002/tables/probes/direct_km.bin": "8ece62cb57780610d29f959fc0a2ad156bd5d53f80072a2f87c84134f4246962",
    "000002/tables/probes/peer.bin": "89a952995495e2ce48654af6c97d542be98f29e54c544317ffa9561212ba6b70",
    "000002/tables/probes/rtt.bin": "a916a5ef2972b783917c8279b55e724b5f4252b1227b2c726fb285d5fad449b1",
    "000002/tables/probes/site.bin": "0db0f822e67695258f72fee79053d6e6cb837c52b22d876ef436841753ececb8",
    "000002/tables/probes/transit.bin": "6ba768073ebd682cf77ae9a3c292fe39204c37d11e2392d990ae71320ba89a7e",
    "000002/tables/probes/ts.bin": "493f0b07c810649633e63672b3a077f0917472bff4d095045cf9759f36f5c5c9",
    "000002/tables/probes/vp.bin": "e1900f555e6e7de0123ee673e2657bd3efc803a94fb230e7b702fb15071ad543",
    "000002/tables/stability/addr.bin": "bb1f89118293b1e8092dc3742815b29ef1ea030069148782b88dff710df3b118",
    "000002/tables/stability/changes.bin": "1759a3018cbf5ab828d66c98eba45a43709231e584a6b2596e1e5f8b6533caa9",
    "000002/tables/stability/rounds.bin": "e2159f06ae601dcd9c395ee562a5d81e8cc7fc21dfc717d1ce66fc3ff5af71ab",
    "000002/tables/stability/vp.bin": "e1900f555e6e7de0123ee673e2657bd3efc803a94fb230e7b702fb15071ad543",
    "000002/tables/traceroutes/addr.bin": "360609f2fc5a34abc9b56b24b062f65369af6dd8a9fcbe5963ad79d4817a10bb",
    "000002/tables/traceroutes/hop.bin": "7ffe2cea37121d56a69965d647d225581d8e452b72da490e047bb8f835698fcf",
    "000002/tables/traceroutes/ts.bin": "7dde1e4d6b73e3c49021179f2b0eb2bdc7a709c3d019005545f235bac5bbacb6",
    "000002/tables/traceroutes/vp.bin": "76ba5df166895f9d8c2b199091b6934e567baaccbef047c3a449d195e992f2a3",
    "000002/transfers.jsonl": "b9b643bd4341265ba3766c59c472bd45de78e31b3867cd4d5d52e90590469c5e",
}

#: sha256 of every file of the finalized (and the batch) dataset.
DATASET_FILES = {
    "MANIFEST.json": "1115d8d902c5a2dd4736e24504d83f3fe8b8b85450f72287eb9551bf01a3d96c",
    "identities.json": "78545b51cc0bc4bde4fa81c86671cbb984f7b2666ad2f1f50549efdc9d428c95",
    "tables/probes/addr.bin": "ec7cf174fe5ccf425a5d8172f06af874b8d99801058723b340ad9ecf4da93e94",
    "tables/probes/closest_km.bin": "654b5084410da9f9aa4b3ffcfb68776095bb70cd734a032d65ad61f7c11874d9",
    "tables/probes/direct_km.bin": "22d562b3f2b1b153534fb03df904f926be2d966d03edde29a74707cf0f2b3b3e",
    "tables/probes/peer.bin": "db96391a96547071c18d676f0718fb0f07f420c36d5e2ac1836a5e2b00d50282",
    "tables/probes/rtt.bin": "be206063cbd85b9eefac42b4f14ce0321ea5deeec8a33040f52be699bf1eb10f",
    "tables/probes/site.bin": "d64e43bcb06d22559c6a1c353b155fbac53ba9e18341e14aab6e0404d2d276d7",
    "tables/probes/transit.bin": "972194da9e664aec40b7c1cfb9cf027785af23c0f82fb60613acae005ae69ff8",
    "tables/probes/ts.bin": "96e21d7dad92d7b39a63dede0cec1da52190a6564fed0506ddd28e86f7771bea",
    "tables/probes/vp.bin": "17eb80cd5c25ea5592d6129b3174e2b7bc4407a642eec11206244033061a8cce",
    "tables/stability/addr.bin": "bb1f89118293b1e8092dc3742815b29ef1ea030069148782b88dff710df3b118",
    "tables/stability/changes.bin": "fc816e00e11dedcc8beb23815cd90cedaf2786d397faf16ef2654148fcb5c935",
    "tables/stability/rounds.bin": "dfa9e878d588818f7ff248cc51147ac32c268243a58d02929772581db6df1cd7",
    "tables/stability/vp.bin": "e1900f555e6e7de0123ee673e2657bd3efc803a94fb230e7b702fb15071ad543",
    "tables/traceroutes/addr.bin": "ccf9f8c13acaca4fed3a100a60086e68a7236bec051529ee472d1227a8e3e716",
    "tables/traceroutes/hop.bin": "26dff8a0d1be987d945f4dce944e54e6ed391f4c370175f91d0f0ddc8e305f67",
    "tables/traceroutes/ts.bin": "37ef9b1e481e02a6e730c5835e851ce535a0ac11e884bc145b662b31f05efefc",
    "tables/traceroutes/vp.bin": "2a844e7b667262b8285d4e20fd63d9bf00dfc63957bf3a9407897766d18eefef",
    "transfers.jsonl": "4efb9f18b551d6c681a65878e05b9f357627a6d5b7a5ace6e25e42de4f07b0d5",
}


def file_digests(root: Path) -> Dict[str, str]:
    """sha256 of every file under *root*, keyed by relative path."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def assert_pinned(actual: Dict[str, str], pinned: Dict[str, str]) -> None:
    assert sorted(actual) == sorted(pinned), sorted(set(actual) ^ set(pinned))
    moved = [name for name in pinned if actual[name] != pinned[name]]
    assert not moved, moved


@pytest.fixture(scope="module")
def streamed(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned-stream")
    run_streaming_campaign(
        tiny_stream_config(), root / "ckpt", checkpoint_every=CHECKPOINT_EVERY
    )
    finalize_streaming_campaign(root / "ckpt", root / "dataset", passive=False)
    return root


def test_chunk_files_pinned(streamed):
    assert_pinned(file_digests(streamed / "ckpt" / "chunks"), CHUNK_FILES)


def test_finalized_dataset_pinned(streamed):
    assert_pinned(file_digests(streamed / "dataset"), DATASET_FILES)


def test_batch_save_pinned(tmp_path):
    out = tmp_path / "dataset"
    StudyPipeline(tiny_stream_config()).run().save(out, passive=False)
    assert_pinned(file_digests(out), DATASET_FILES)
