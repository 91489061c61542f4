import dataclasses
import inspect

import pytest

import radixmul
from radixmul import baseline, cli, datapath, engine, word

LIBRARY_MODULES = (baseline, datapath, engine, word)


def test_every_exported_name_resolves():
    assert radixmul.__all__ == sorted(set(radixmul.__all__))
    for name in radixmul.__all__:
        assert hasattr(radixmul, name), name


def test_every_public_definition_is_exported():
    public = {
        name
        for module in LIBRARY_MODULES
        for name, obj in vars(module).items()
        if (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__ and not name.startswith("_")
    }
    assert public == set(radixmul.__all__)


@pytest.mark.parametrize("module", LIBRARY_MODULES, ids=lambda m: m.__name__)
def test_each_module_lists_its_public_definitions(module):
    # a new public function or class fails here, in its own module
    public = sorted(
        name
        for name, obj in vars(module).items()
        if (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__ and not name.startswith("_")
    )
    assert module.__all__ == public


def test_star_import_binds_exactly_the_exports():
    ns = {}
    exec("from radixmul import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == radixmul.__all__
    defining = {name: module for module in LIBRARY_MODULES for name in module.__all__}
    for name, obj in ns.items():
        assert obj is getattr(defining[name], name), name


@pytest.mark.parametrize("name", ["resize", "shift_left", "add"])
def test_word_helpers_are_gone(name):
    # widths are checked by the Word constructor alone
    assert name not in radixmul.__all__
    assert not hasattr(radixmul, name)
    assert not hasattr(word, name)


_TABLE = datapath.build_multiple_table(word.Word(13, 6), 3)


@pytest.mark.parametrize("owner,name", [
    (word.Word, "bit"),
    (word.Word, "bits"),
    (word.Word, "__int__"),
    # the multiple table is a plain dict of odd multiples; the ladder's
    # step counts are read from _ladder alone
    pytest.param(_TABLE, "ladder_adds", id="MultipleTable-ladder_adds"),
    pytest.param(_TABLE, "ladder_shifts", id="MultipleTable-ladder_shifts"),
    (datapath, "MultipleTable"),
    # the central adder is _central_step alone, and the digit stream is
    # read off the multiplier inside the cycle loop
    (datapath, "central_adder_step"),
    (word, "split_digits"),
    # simulate folds each emission into the product as the cycle runs, and
    # every SimResult is built straight from its product and records
    (engine, "assemble_product"),
    (engine, "_native_result"),
    # the tests read the independent model's records from _native_records
    (engine, "_native_run"),
    (cli, "SEED_ENV_VAR"),
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_unread_members_are_gone(owner, name):
    # no path in the library, the demos or the benchmark read these
    assert not hasattr(owner, name)


@pytest.mark.parametrize("name", ["central_adder_step", "split_digits"])
def test_word_level_adder_and_digit_split_are_gone(name):
    assert name not in radixmul.__all__
    assert not hasattr(radixmul, name)


def test_product_stitcher_is_gone():
    assert "assemble_product" not in radixmul.__all__
    assert not hasattr(radixmul, "assemble_product")


def test_a_result_holds_only_what_a_run_produces():
    # cycles, total_time_ns and digit_cycles are read from the records and
    # the config, so no copy of them can disagree
    assert [f.name for f in dataclasses.fields(engine.SimResult)] == [
        "a", "b", "config", "product", "trace"]
    res = engine.simulate(word.Word(13, 6), word.Word(63, 6), engine.SimConfig(n=6))
    for name in ("cycles", "total_time_ns", "digit_cycles"):
        with pytest.raises(AttributeError):
            setattr(res, name, 1)


def test_unchecked_trace_loader_is_gone():
    # verify_trace_dict is the one reader of a trace document
    assert "from_trace_dict" not in radixmul.__all__
    assert not hasattr(radixmul, "from_trace_dict")
    assert not hasattr(engine, "from_trace_dict")
