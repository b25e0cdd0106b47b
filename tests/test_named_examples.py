import hashlib
import json

from connsum import serialize
from connsum.named_examples import EXAMPLE_NAMES, run_example

# sha256 of each named relation's canonical JSON, built at bound 20, and the
# tolerance each name verifies at by default
PINNED = {
    "cloitre": ("38da5372d525138721ecdb2973a7ff1097458204ac90c1c66d241d2849a68482", 1e-4),
    "oloa": ("441566eb692899c36d520b9cb1eed6b944a8701392deeb0482a196ca9cc73171", 1e-4),
    "triple": ("5efcd55b562b4cf4bb1d4547ee414eb249fff69159a0e2b6b8aec39f55f0c886", 1e-3),
    "amtagpa:2": ("5efcd55b562b4cf4bb1d4547ee414eb249fff69159a0e2b6b8aec39f55f0c886", 1e-3),
    "amtagpa:3": ("8838711428853a63a83963544ca8354959fff7661aad8a45b52de087ea9ae878", 1e-3),
    "amtagpa:4": ("553e48bce8dc8c352e025a6828cc1d7b7f77caf280028e8d594b6bf69fc48c38", 1e-3),
    "zeta4": ("330a98233d79f9e52a154486554419bd559423334718838316d172a7daf17250", 1e-4),
    "dilcher:2": ("92075fe31738382e70a9bd14e5f7c2b33d37b92d04101b9a0368bb6414f7d81b", 3e-4),
    "dilcher:3": ("0810be8efd997e132f8e654ff76f1574d34e58af7c742b9f663f9930cf9aa667", 3e-4),
    "dilcher:4": ("a749e3fd0a43500e600f16dab2c416b127bdafb4e8def7f96bd59522699d3eb6", 3e-4),
    "dilcher:5": ("a1d9b67307ab6e97b566fe6d661ed432453dbfafaf26ad32a0a9a9a294b2c444", 3e-4),
    "dilcher:6": ("7111af4ed109b9b0c9dccef703155884166e9b356cc2568e1635b3e00f7985fd", 3e-4),
    "dilog": ("f158ebbf5f62ca19f31b5b5ad302126f8125e76f4ae8f85cc42175f2d5c205c8", 1e-6),
    "kummer-newman": ("7da6c0a4aa74df207487bf23ba11e72326a3b3b6e879f0d71ed4167249b7ec36", 1e-6),
    "eight-term": ("6149bc5c541bdcbf8afe0e3c62957cc4806149752f27bf1bcc1e06021243c688", 1e-6),
}


def test_named_relations_and_default_tols_pinned():
    assert tuple(PINNED) == EXAMPLE_NAMES
    for name, (digest, tol) in PINNED.items():
        rel = run_example(name, bound=20).relation
        text = json.dumps(serialize.relation_to_json(rel), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name
        assert run_example(name).report.tol == tol, name


def test_pure_polylog_examples_do_not_read_the_bound():
    # both sides are polylogarithms, so the bound checked for every name
    # changes nothing here
    for name in ("dilog", "kummer-newman", "eight-term"):
        assert run_example(name, bound=1).to_json() == run_example(name, bound=400).to_json()
