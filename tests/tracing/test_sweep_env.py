"""The CLI's one shared argument parser."""


class TestCliParser:
    def test_shared_parser_builds(self, capsys):
        """Every subcommand's option group registers on the one shared
        parser (a duplicate add_argument would crash at parser
        build)."""
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "trace" in out and "profile" in out
