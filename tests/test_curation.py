"""Tests for the license filter, copyright filter, and full pipeline."""

import datetime

import pytest

from repro.curation import (
    CopyrightFilter,
    CurationConfig,
    CurationPipeline,
    FunnelReport,
    LicenseFilter,
)
from repro.curation.copyright_filter import extract_comment_text
from repro.github.scraper import ScrapedFile


def scraped(content, license_key="mit", file_id="r/x:src/a.v",
            header_kind="none"):
    repo, _, path = file_id.partition(":")
    return ScrapedFile(
        repo_full_name=repo,
        author="owner",
        path=path,
        content=content,
        license_key=license_key,
        created_at=datetime.date(2020, 1, 1),
        header_kind=header_kind,
    )


class TestLicenseFilter:
    def test_accepts_known_license(self):
        assert LicenseFilter().accepts(scraped("x", "mit"))
        assert LicenseFilter().accepts(scraped("x", "gpl-3.0"))

    def test_rejects_unlicensed(self):
        assert not LicenseFilter().accepts(scraped("x", None))

    def test_allow_unlicensed_mode(self):
        assert LicenseFilter(allow_unlicensed=True).accepts(scraped("x", None))

    def test_restricted_allowlist(self):
        f = LicenseFilter(allowed=["mit"])
        assert f.accepts(scraped("x", "mit"))
        assert not f.accepts(scraped("x", "apache-2.0"))


class TestCommentExtraction:
    def test_line_and_block_comments(self):
        text = "// top\nmodule m; /* inner */ endmodule\n"
        comments = extract_comment_text(text)
        assert "top" in comments and "inner" in comments

    def test_code_not_included(self):
        comments = extract_comment_text("module proprietary_name; endmodule")
        assert "proprietary" not in comments

    def test_header_lines_limit(self):
        text = "\n" * 50 + "// late proprietary comment\n"
        assert "proprietary" not in extract_comment_text(text, header_lines=40)
        assert "proprietary" in extract_comment_text(text, header_lines=0)

    def test_unterminated_block_comment_scanned(self):
        text = "/* CONFIDENTIAL header that never closes\nmodule m;"
        assert "CONFIDENTIAL" in extract_comment_text(text)


class TestCopyrightFilter:
    @pytest.mark.parametrize(
        "header",
        [
            "// This file is PROPRIETARY to Acme.\n",
            "// Acme CONFIDENTIAL\n",
            "// Copyright (c) 2020 Acme. All rights reserved.\n",
            "/* Unauthorized copying of this file is prohibited */\n",
            "// Copyright 2019 Acme. This is the property of Acme and may\n"
            "// not be used without express written consent.\n",
        ],
    )
    def test_flags_protected_headers(self, header):
        source = header + "module m(input a); endmodule\n"
        assert not CopyrightFilter().is_clean(source)

    @pytest.mark.parametrize(
        "header",
        [
            "",
            "// SPDX-License-Identifier: MIT\n// Copyright (c) 2020 dev\n"
            "// Permission is hereby granted, free of charge\n",
            "// just a normal design note\n",
            "// Copyright (c) 2021 dev\n",  # bare copyright w/o restrictions
        ],
    )
    def test_passes_open_headers(self, header):
        source = header + "module m(input a); endmodule\n"
        assert CopyrightFilter().is_clean(source)

    def test_identifier_names_do_not_flag(self):
        source = "module confidential_unit(input proprietary_sig); endmodule"
        assert CopyrightFilter().is_clean(source)

    def test_case_insensitive(self):
        assert not CopyrightFilter().is_clean("// ALL RIGHTS RESERVED\n")

    def test_verdict_reports_keywords(self):
        verdict = CopyrightFilter().inspect("// proprietary and confidential\n")
        assert verdict.flagged
        assert "proprietary" in verdict.matched_keywords

    def test_ground_truth_recall(self, world):
        """Every injected proprietary file must be caught (the paper found
        >2k such files with this style of filter)."""
        detector = CopyrightFilter()
        files = world.proprietary_files()
        assert files
        assert all(not detector.is_clean(f.content) for f in files)

    def test_ground_truth_precision_on_license_headers(self, world):
        detector = CopyrightFilter()
        false_positives = 0
        checked = 0
        for repo in world.repos:
            for record in repo.verilog_files:
                if record.header_kind == "license":
                    checked += 1
                    if not detector.is_clean(record.content):
                        false_positives += 1
        assert checked > 0
        assert false_positives == 0


class TestFunnelReportEdges:
    def test_negative_in_count_rejected(self):
        with pytest.raises(ValueError):
            FunnelReport().record("weird", -1, -2)

    def test_negative_out_count_rejected(self):
        with pytest.raises(ValueError):
            FunnelReport().record("weird", 5, -1)

    def test_growth_rejected(self):
        with pytest.raises(ValueError):
            FunnelReport().record("grew", 3, 4)

    def test_zero_counts_allowed(self):
        report = FunnelReport()
        stage = report.record("empty", 0, 0)
        assert stage.removal_fraction == 0.0
        assert report.final_count == 0

    def test_to_text_long_stage_names_stay_aligned(self):
        report = FunnelReport()
        report.record("short", 10, 5)
        long_name = "extremely_long_experimental_stage_name"
        report.record(long_name, 5, 5)
        lines = report.to_text().splitlines()
        # all rows share one width and columns still parse as numbers
        assert len({len(line) for line in lines}) == 1
        assert lines[2].startswith(long_name)
        assert lines[2].split()[1:] == ["5", "5", "0", "0.000"]

    def test_to_text_default_layout_unchanged(self):
        report = FunnelReport()
        report.record("extracted", 100, 100)
        report.record("license_filter", 100, 50)
        header = report.to_text().splitlines()[0]
        assert header.startswith("stage")
        assert header.index("in") == 30  # the seed's 22 + 10-wide layout

    def test_empty_report(self):
        report = FunnelReport()
        assert report.initial_count == 0
        assert report.final_count == 0
        assert report.stage("anything") is None


class TestPipeline:
    def test_full_funnel_order_and_monotonicity(self, raw_files):
        dataset = CurationPipeline().run(raw_files)
        names = [s.name for s in dataset.funnel.stages]
        assert names == [
            "extracted", "license_filter", "dedup",
            "copyright_filter", "syntax_check",
        ]
        counts = [s.out_count for s in dataset.funnel.stages]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert dataset.rows == dataset.funnel.final_count

    def test_output_is_clean(self, raw_files):
        from repro.verilog import check_syntax

        dataset = CurationPipeline().run(raw_files)
        detector = CopyrightFilter()
        for record in dataset.files:
            assert record.license_key is not None
            assert detector.is_clean(record.content)
        # spot-check syntax on a sample
        for record in dataset.files[:25]:
            assert check_syntax(record.content).ok

    def test_stages_can_be_disabled(self, raw_files):
        config = CurationConfig(
            license_check=False,
            allow_unlicensed=True,
            dedup=False,
            copyright_check=False,
            syntax_check=False,
        )
        dataset = CurationPipeline(config).run(raw_files, name="raw")
        assert dataset.rows == len(raw_files)
        assert [s.name for s in dataset.funnel.stages] == ["extracted"]

    def test_length_cap(self, raw_files):
        config = CurationConfig(max_file_chars=1500, dedup=False)
        dataset = CurationPipeline(config).run(raw_files)
        assert all(len(f.content) <= 1500 for f in dataset.files)
        assert dataset.funnel.stage("length_cap") is not None

    def test_dataset_metadata(self, raw_files):
        dataset = CurationPipeline().run(raw_files, name="FreeSet")
        assert dataset.name == "FreeSet"
        assert dataset.license_check and dataset.copyright_check
        assert dataset.size_bytes == sum(
            len(f.content.encode()) for f in dataset.files
        )

    def test_lone_surrogate_file_is_hashed_not_raised(self):
        # A scraped file whose JSON carried a "\ud800" escape: strict
        # UTF-8 in the shingle hashes took down the whole curation run.
        files = [
            scraped(
                "module a(input x, output y); // \ud800 stray\n"
                " assign y = x;\nendmodule\n",
                file_id="r/a:src/a.v",
            ),
            scraped(
                "module b(input x, output y);\n"
                " assign y = ~x;\nendmodule\n",
                file_id="r/b:src/b.v",
            ),
        ]
        dataset = CurationPipeline().run(files)
        assert dataset.funnel.stage("dedup").out_count == 2
        assert dataset.rows == 2
        assert dataset.size_bytes > 0

    def test_funnel_text_render(self, freeset_result):
        text = freeset_result.dataset.funnel.to_text()
        assert "license_filter" in text
        assert "dedup" in text
