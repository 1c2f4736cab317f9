"""Delta-debugging minimizer: shrink a seeded divergence to a test."""

import pytest

from repro.fuzz.isagen import generate_isa_program
from repro.fuzz.minimize import (
    instruction_count,
    is_instruction,
    load_corpus,
    minimize_asm,
    minimize_result,
    write_corpus_entry,
)
from repro.fuzz.oracle import Divergence, FuzzResult, run_once
from repro.isa.assembler import assemble
from repro.machine.config import MachineConfig


def traps_divide(text):
    outcome = run_once(assemble(text),
                       MachineConfig.plain(timing=False,
                                           engine="legacy"))
    return outcome.status == "trap" and \
        outcome.trap[0] == "DivideByZeroError"


def buried_program():
    """~100 instructions of generated junk hiding one true div-by-0.

    The generator's programs are div-safe by construction, so the
    appended unguarded divide is the only divergent instruction."""
    junk = generate_isa_program(2, stmts=24)
    lines = junk.splitlines()
    cut = lines.index("Lexit:")
    lines[cut:cut] = ["    mov r2, 0",
                      "    div r1, r1, r2"]
    return "\n".join(lines) + "\n"


class TestMinimizeAsm:
    def test_seeded_divergence_shrinks_to_ten_instructions(self):
        """The acceptance bar: a deliberately-seeded divergence in a
        ~100-instruction program round-trips to <= 10 instructions
        while the predicate still holds."""
        text = buried_program()
        assert instruction_count(text) >= 80
        assert traps_divide(text)
        small = minimize_asm(text, traps_divide)
        assert traps_divide(small)
        assert instruction_count(small) <= 10

    def test_structure_survives(self):
        small = minimize_asm(buried_program(), traps_divide)
        assert small.splitlines()[-1].strip().endswith(".space 64")
        assert any(line.rstrip() == "main:"
                   for line in small.splitlines())

    def test_rejects_unsatisfied_predicate(self):
        with pytest.raises(ValueError):
            minimize_asm("main:\n    halt r0\n", traps_divide)

    def test_predicate_exceptions_count_as_uninteresting(self):
        """Candidates that stop assembling must not kill the run."""
        def fragile(text):
            assemble(text)          # raises on broken candidates
            return "div" in text
        small = minimize_asm(buried_program(), fragile)
        assert "div" in small

    def test_max_checks_budget_returns_valid_program(self):
        small = minimize_asm(buried_program(), traps_divide,
                             max_checks=5)
        assert traps_divide(small)


class TestMinimizeResult:
    def test_shrinks_via_oracle_callable(self):
        text = buried_program()
        result = FuzzResult(seed=2, level="isa", status="trap",
                            trap="DivideByZeroError",
                            divergences=[Divergence(
                                "engine", "decoded", False, ["pc"])],
                            program=text, config={})

        def oracle(candidate):
            return ([Divergence("engine", "decoded", False, ["pc"])]
                    if traps_divide(candidate) else [])

        small = minimize_result(result, oracle=oracle)
        assert instruction_count(small) <= 10

    def test_minic_results_pass_through(self):
        result = FuzzResult(seed=0, level="minic", status="exit",
                            trap=None, divergences=[],
                            program="int main() { return 0; }\n",
                            config={})
        assert minimize_result(result) == result.program


class TestLineClassification:
    @pytest.mark.parametrize("line,removable", [
        ("    add r1, r2, r3", True),
        ("    halt r1", True),
        ("main:", False),
        ("Lexit:", False),
        ("    .data", False),
        ("gbuf: .space 64", False),
        ("; comment", False),
        ("", False),
    ])
    def test_is_instruction(self, line, removable):
        assert is_instruction(line) == removable


class TestCorpusIO:
    def test_write_and_load_round_trip(self, tmp_path):
        corpus = str(tmp_path / "corpus")
        meta = {"level": "isa", "seed": 7, "config": {"mode": "full"}}
        write_corpus_entry(corpus, "isa-seed7",
                           "main:\n    halt r0\n", meta)
        entries = load_corpus(corpus)
        assert len(entries) == 1
        name, program, loaded = entries[0]
        assert name == "isa-seed7"
        assert program == "main:\n    halt r0\n"
        assert loaded == meta

    def test_minic_entries_use_c_extension(self, tmp_path):
        corpus = str(tmp_path / "corpus")
        prog_path, _ = write_corpus_entry(
            corpus, "minic-seed1", "int main() { return 0; }\n",
            {"level": "minic", "seed": 1})
        assert prog_path.endswith(".c")
        assert load_corpus(corpus)[0][0] == "minic-seed1"

    def test_missing_directory_is_empty(self, tmp_path):
        assert load_corpus(str(tmp_path / "nope")) == []
