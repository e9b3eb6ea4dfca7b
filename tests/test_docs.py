"""Documentation is checked, not trusted.

Three gates keep the docs tree honest:

* ``docs/CLI.md`` is compared against :func:`repro.cli.build_parser` —
  every subcommand, every option string and every exit code must appear
  on the page, so a new flag cannot land undocumented;
* every relative markdown link in ``README.md`` and ``docs/`` must
  resolve (same checker CI runs via ``tools/check_docs_links.py``);
* the headline coverage figures quoted in ``DESIGN.md`` must match the
  committed Table 5 in ``benchmarks/results/``.
"""

import argparse
import importlib.util
import re
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
CLI_DOC = ROOT / "docs" / "CLI.md"
TABLE5 = ROOT / "benchmarks" / "results" / "table5_fault_coverage.txt"

#: The documented exit-code space (0 = success .. 10 = service failure).
MAX_EXIT_CODE = 10


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    raise AssertionError("build_parser() lost its subcommands")


def _option_strings(parser: argparse.ArgumentParser) -> list[str]:
    return [
        option
        for action in parser._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    ]


class TestCliDocs:
    def test_every_subcommand_documented(self):
        text = CLI_DOC.read_text()
        for name in _subcommands(build_parser()):
            assert f"repro {name}" in text, (
                f"docs/CLI.md does not document the {name!r} subcommand"
            )

    def test_every_flag_documented(self):
        text = CLI_DOC.read_text()
        parser = build_parser()
        missing = [
            f"{name}: {option}"
            for name, sub in _subcommands(parser).items()
            for option in _option_strings(sub)
            if f"`{option}" not in text
        ]
        missing.extend(
            f"(top level): {option}"
            for option in _option_strings(parser)
            if f"`{option}" not in text
        )
        assert not missing, (
            "docs/CLI.md is missing flags:\n  " + "\n  ".join(missing)
        )

    def test_every_exit_code_documented(self):
        text = CLI_DOC.read_text()
        for code in range(MAX_EXIT_CODE + 1):
            assert f"| {code} |" in text, (
                f"docs/CLI.md has no exit-code row for {code}"
            )

    def test_no_phantom_subcommands(self):
        # The page must not document commands that no longer exist:
        # every "repro <word>" heading on it names a real subcommand.
        import re

        text = CLI_DOC.read_text()
        real = set(_subcommands(build_parser()))
        documented = set(re.findall(r"^#+ `repro (\w+)", text, re.M))
        assert documented == real


class TestDocsLinks:
    def test_all_relative_links_resolve(self):
        spec = importlib.util.spec_from_file_location(
            "check_docs_links", ROOT / "tools" / "check_docs_links.py"
        )
        checker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checker)
        problems = checker.broken_links(ROOT)
        assert not problems, (
            "broken relative links:\n  "
            + "\n  ".join(f"{page}: {target}" for page, target in problems)
        )

    def test_docs_index_links_every_page(self):
        # docs/README.md is the index: every page in the tree must be
        # reachable from it.
        index = (ROOT / "docs" / "README.md").read_text()
        for page in (ROOT / "docs").rglob("*.md"):
            if page.name == "README.md":
                continue
            relative = page.relative_to(ROOT / "docs").as_posix()
            assert relative in index, (
                f"docs/README.md does not link {relative}"
            )


class TestHeadlineNumbers:
    def test_design_overall_fc_matches_committed_table5(self):
        # The committed Table 5's Plasma row: name | A FC | A MOFC |
        # AB FC | AB MOFC.
        plasma = next(
            line for line in TABLE5.read_text().splitlines()
            if line.split("|")[0].strip() == "Plasma"
        )
        cells = [cell.strip() for cell in plasma.split("|")]
        want = {"Phase A": cells[1], "Phase A+B": cells[3]}
        design = (ROOT / "DESIGN.md").read_text()
        quoted = dict(re.findall(
            r"^\| Overall stuck-at FC, (Phase A(?:\+B)?) \|[^|]*\|"
            r"\s*\**([0-9.]+)%",
            design, flags=re.MULTILINE,
        ))
        assert quoted == want, (
            f"DESIGN.md quotes overall FC {quoted}, committed Table 5 "
            f"says {want}"
        )
