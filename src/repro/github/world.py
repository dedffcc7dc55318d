"""Deterministic generator for a synthetic GitHub repository population.

The generated world is calibrated so the curation pipeline reproduces the
paper's funnel *ratios* (Sec. IV-A) at a configurable scale:

* roughly half the Verilog files live in repos with an accepted OSS
  license (paper: 608,180 of 1.3M ≈ 47%);
* within licensed repos, most file mass is copies of popular cores, so
  MinHash/LSH de-duplication removes about 62.5% of licensed files;
* a small fraction of files inside nominally open-source repos carry
  vendored proprietary/confidential headers (paper: ~1% of the original
  corpus; >2k found in the deduplicated set) — these are what the
  file-level copyright filter must catch;
* a few files are syntactically corrupted (caught by the syntax check);
* file lengths are heavy-tailed, including one scaled "mega netlist"
  outlier (the paper found a 90M-character file).

Ground truth (header kind, duplicate origin) is recorded on every file so
tests can measure filter precision/recall — the curation pipeline itself
never reads these fields.
"""

from __future__ import annotations

import dataclasses
import datetime
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.github.licenses import (
    OPEN_SOURCE_LICENSE_KEYS,
    PROPRIETARY_COMPANIES,
    license_header,
    proprietary_header,
)
from repro.utils.rng import DeterministicRNG
from repro.vgen import generate as generate_module

_OWNERS = [
    "hdl-hub", "fpga-forge", "rtl-works", "siliconsmith", "bitstream-labs",
    "opencores-mirror", "chipcraft", "verilog-vault", "logic-foundry",
    "asic-atelier", "hw-junkie", "meadow-eda", "soc-sandbox", "gate-garden",
]

_REPO_NOUNS = [
    "riscv-core", "uart-ip", "fifo-lib", "alu-collection", "fpga-primitives",
    "hdl-snippets", "soc-blocks", "verilog-examples", "dsp-kit", "crypto-cores",
    "memory-ctrl", "timer-ip", "gpio-bank", "spi-master", "i2c-slave",
    "video-pipeline", "axi-fabric", "debug-probe", "pll-models", "cdc-lib",
]

_NOISE_FILES: List[Tuple[str, str]] = [
    ("README.md", "# {repo}\n\nOpen hardware modules.\n"),
    ("Makefile", "all:\n\tiverilog -o sim tb.v src/*.v\n"),
    (".gitignore", "*.vcd\n*.out\nbuild/\n"),
    ("docs/notes.txt", "Design notes for {repo}.\n"),
    ("scripts/run.sh", "#!/bin/sh\nexec iverilog src/*.v\n"),
    ("tb/waves.cfg", "[signals]\nclk rst\n"),
]


@dataclass
class RepoFile:
    """One file in a synthetic repository, with generation ground truth."""

    path: str
    content: str
    #: 'license' (repo's OSS header), 'plain' (author comment only),
    #: 'none' (no header), or 'proprietary' (vendored copyrighted file).
    header_kind: str = "none"
    #: Identifier of the unique underlying module; files sharing an
    #: origin_id are (near-)duplicates of each other.
    origin_id: int = -1
    #: 'fresh' for first publications, 'copy' for cross-repo copies.
    origin: str = "fresh"
    family: str = ""
    corrupted: bool = False

    @property
    def is_verilog(self) -> bool:
        return self.path.endswith(".v") or self.path.endswith(".vh")


@dataclass
class Repository:
    """One synthetic repository."""

    full_name: str
    owner: str
    created_at: datetime.date
    license_key: Optional[str]
    files: List[RepoFile] = field(default_factory=list)
    stars: int = 0

    @property
    def verilog_files(self) -> List[RepoFile]:
        return [f for f in self.files if f.is_verilog]


@dataclass
class WorldConfig:
    """Knobs for the world generator (defaults target the paper's ratios)."""

    n_repos: int = 400
    seed: int = 20250612
    #: fraction of repos carrying an accepted OSS license
    licensed_repo_fraction: float = 0.47
    #: mean Verilog files per repo (heavy-tailed around this)
    mean_verilog_files: float = 26.0
    #: probability a new file is a copy of an already-published file
    duplicate_rate: float = 0.625
    #: probability a copy receives a small perturbation (fork comment etc.)
    perturb_rate: float = 0.35
    #: probability a file in a *licensed* repo is vendored proprietary code
    proprietary_rate: float = 0.02
    #: probability a fresh file is syntactically corrupted
    corruption_rate: float = 0.03
    #: include one scaled mega-netlist outlier file
    include_mega_file: bool = True
    mega_file_modules: int = 220
    date_start: datetime.date = datetime.date(2008, 4, 1)
    date_end: datetime.date = datetime.date(2024, 12, 31)


@dataclass
class GitHubWorld:
    """The full synthetic repository population."""

    config: WorldConfig
    repos: List[Repository] = field(default_factory=list)

    @property
    def total_verilog_files(self) -> int:
        return sum(len(r.verilog_files) for r in self.repos)

    def repo(self, full_name: str) -> Optional[Repository]:
        for repo in self.repos:
            if repo.full_name == full_name:
                return repo
        return None

    def proprietary_files(self) -> List[RepoFile]:
        """Ground truth: every vendored proprietary Verilog file."""
        return [
            f
            for repo in self.repos
            for f in repo.verilog_files
            if f.header_kind == "proprietary"
        ]


def _random_date(
    rng: DeterministicRNG, start: datetime.date, end: datetime.date
) -> datetime.date:
    """Creation date skewed toward recent years (GitHub growth)."""
    span = (end - start).days
    # Take the max of two uniforms: linearly increasing density.
    offset = max(rng.randint(0, span), rng.randint(0, span))
    return start + datetime.timedelta(days=offset)


def _corrupt(source: str, rng: DeterministicRNG) -> str:
    """Introduce a syntax error of a randomly chosen kind."""
    kind = rng.choice(["drop_endmodule", "drop_semicolon", "unbalance", "typo"])
    if kind == "drop_endmodule" and "endmodule" in source:
        return source.replace("endmodule", "", 1)
    if kind == "drop_semicolon" and ";" in source:
        idx = source.index(";", len(source) // 3)
        if idx >= 0:
            return source[:idx] + source[idx + 1:]
    if kind == "unbalance" and "(" in source:
        return source.replace("(", "", 1)
    return source.replace("module", "modul", 1)


def _perturb_copy(content: str, repo_name: str, rng: DeterministicRNG) -> str:
    """Small fork-style edit that keeps Jaccard similarity above 0.85."""
    choice = rng.choice(["fork_note", "trailing_note", "blank_lines"])
    if choice == "fork_note":
        return f"// vendored into {repo_name}\n" + content
    if choice == "trailing_note":
        return content + f"\n// local copy, do not edit ({rng.randint(1, 99)})\n"
    return content.replace("\n\n", "\n", 1)


class _FilePool:
    """Published-file pool implementing popularity-weighted copying."""

    def __init__(self, rng: DeterministicRNG) -> None:
        self._rng = rng
        self._published: List[RepoFile] = []
        self._next_origin = 0

    def fresh(self, config: WorldConfig) -> RepoFile:
        # Real Verilog files frequently hold several modules; multi-module
        # files also keep the fresh-file population textually diverse, so
        # only genuine cross-repo copies trip the 0.85-Jaccard dedup.
        n_modules = self._rng.weighted_choice({1: 0.55, 2: 0.3, 3: 0.15})
        parts = [
            generate_module(self._rng.fork("module", self._next_origin, j))
            for j in range(n_modules)
        ]
        module = parts[0]
        corrupted = self._rng.maybe(config.corruption_rate)
        content = "\n".join(
            dict.fromkeys(p.source for p in parts)  # drop exact repeats
        )
        if corrupted:
            content = _corrupt(content, self._rng)
        record = RepoFile(
            path=f"src/{module.name}.v",
            content=content,
            origin_id=self._next_origin,
            origin="fresh",
            family=module.family,
            corrupted=corrupted,
        )
        self._next_origin += 1
        # Keep a pristine copy in the pool: the caller mutates its instance
        # (license/proprietary headers), and later cross-repo copies must
        # start from the unheadered original.
        self._published.append(dataclasses.replace(record))
        return record

    def copy(self, repo_name: str, config: WorldConfig) -> Optional[RepoFile]:
        if not self._published:
            return None
        # Earlier publications are more popular (min of two draws).
        idx = min(
            self._rng.randint(0, len(self._published) - 1),
            self._rng.randint(0, len(self._published) - 1),
        )
        origin = self._published[idx]
        content = origin.content
        if self._rng.maybe(config.perturb_rate):
            content = _perturb_copy(content, repo_name, self._rng)
        return RepoFile(
            path=origin.path,
            content=content,
            origin_id=origin.origin_id,
            origin="copy",
            family=origin.family,
            corrupted=origin.corrupted,
        )


_IDENT_RE_FOR_BRANDING = None  # initialized lazily below


def _brand_identifiers(content: str, prefix: str) -> str:
    """Prefix user identifiers with a vendor namespace (``qlz_count``).

    Real vendored IP ships with company-namespaced identifiers; branding
    makes the proprietary files *textually distinctive even after comment
    stripping*, which is what lets the copyright benchmark separate models
    that trained on them from models that merely saw the same design
    idioms.
    """
    import re

    from repro.verilog.tokens import KEYWORDS

    global _IDENT_RE_FOR_BRANDING
    if _IDENT_RE_FOR_BRANDING is None:
        # The lookbehind keeps based-literal bodies intact: the "d0" in
        # 8'd0 is not an identifier.
        _IDENT_RE_FOR_BRANDING = re.compile(
            r"(?<!')\b[A-Za-z_][A-Za-z0-9_]*\b"
        )

    def rename(match: "re.Match") -> str:
        word = match.group(0)
        if word in KEYWORDS or word.startswith(prefix):
            return word
        return prefix + word

    return _IDENT_RE_FOR_BRANDING.sub(rename, content)


_COMPANY_PREFIXES = {
    "Quartzline Semiconductor": "qlz_",
    "Veridian Microsystems": "vmx_",
    "Apex Silicon Works": "apx_",
    "NorthGate FPGA Corp": "ngf_",
    "Helix Integrated Devices": "hxd_",
    "Cobalt Logic Inc.": "cbl_",
}


def _make_proprietary(
    record: RepoFile, rng: DeterministicRNG, year: int
) -> RepoFile:
    company = rng.choice(PROPRIETARY_COMPANIES)
    header = proprietary_header(
        rng.randint(0, 2), company, year, key=f"{rng.randint(0, 0xFFFFFFFF):08x}"
    )
    branded = _brand_identifiers(record.content, _COMPANY_PREFIXES[company])
    record.content = header + branded
    record.header_kind = "proprietary"
    record.path = f"vendor/{record.path.rsplit('/', 1)[-1]}"
    return record


def _mega_netlist(rng: DeterministicRNG, n_modules: int) -> RepoFile:
    """A single huge generated netlist file (the Figure 2 outlier)."""
    parts = [
        "// Auto-generated flattened netlist dump. Do not edit by hand.\n"
    ]
    sub = rng.fork("mega")
    for i in range(n_modules):
        module = generate_module(sub.fork(i))
        parts.append(
            module.source.replace(
                f"module {module.name}", f"module {module.name}_gen{i}", 1
            )
        )
    return RepoFile(
        path="gen/flattened_netlist.v",
        content="\n".join(parts),
        header_kind="none",
        origin_id=-2,
        origin="fresh",
        family="netlist_dump",
    )


def generate_world(config: Optional[WorldConfig] = None) -> GitHubWorld:
    """Generate the full synthetic repository population."""
    config = config or WorldConfig()
    rng = DeterministicRNG(config.seed)
    pool = _FilePool(rng.fork("pool"))
    world = GitHubWorld(config=config)

    for index in range(config.n_repos):
        repo_rng = rng.fork("repo", index)
        owner = repo_rng.choice(_OWNERS)
        noun = repo_rng.choice(_REPO_NOUNS)
        full_name = f"{owner}/{noun}-{index}"
        created = _random_date(repo_rng, config.date_start, config.date_end)
        licensed = repo_rng.maybe(config.licensed_repo_fraction)
        license_key = (
            repo_rng.choice(OPEN_SOURCE_LICENSE_KEYS) if licensed else None
        )
        repo = Repository(
            full_name=full_name,
            owner=owner,
            created_at=created,
            license_key=license_key,
            stars=repo_rng.lognormal_int(8, 1.6, lo=0, hi=30000),
        )

        n_verilog = repo_rng.lognormal_int(
            config.mean_verilog_files * 0.55, 0.9, lo=1, hi=600
        )
        for file_index in range(n_verilog):
            if repo_rng.maybe(config.duplicate_rate):
                record = pool.copy(full_name, config)
                if record is None:
                    record = pool.fresh(config)
            else:
                record = pool.fresh(config)
            # Vendored proprietary code appears inside licensed repos: that
            # is exactly the hazard the paper's file-level filter targets.
            if license_key is not None and repo_rng.maybe(config.proprietary_rate):
                record = _make_proprietary(record, repo_rng, created.year)
            elif license_key is not None:
                record.content = (
                    license_header(license_key, owner, created.year)
                    + record.content
                )
                record.header_kind = "license"
            elif repo_rng.maybe(0.3):
                record.content = (
                    f"// {noun} - written by {owner}\n" + record.content
                )
                record.header_kind = "plain"
            # Avoid path collisions within a repo.
            record.path = record.path.replace(
                ".v", f"_{file_index}.v" if file_index else ".v"
            )
            repo.files.append(record)

        for noise_path, noise_template in _NOISE_FILES:
            if repo_rng.maybe(0.6):
                repo.files.append(
                    RepoFile(
                        path=noise_path,
                        content=noise_template.format(repo=full_name),
                        header_kind="none",
                        origin_id=-1,
                        origin="noise",
                    )
                )
        world.repos.append(repo)

    if config.include_mega_file and world.repos:
        host = rng.choice([r for r in world.repos if r.license_key is not None]
                          or world.repos)
        mega = _mega_netlist(rng, config.mega_file_modules)
        if host.license_key is not None:
            mega.content = (
                license_header(host.license_key, host.owner, host.created_at.year)
                + mega.content
            )
            mega.header_kind = "license"
        host.files.append(mega)
    return world
