"""cli.main builds only the subparser that its first argument names.

Each subcommand's help must read the same whether its parser was built
alone or beside all the others.
"""

import pytest

from touchard.cli import _SUBCOMMANDS, CliError, build_parser


@pytest.mark.parametrize("command", list(_SUBCOMMANDS))
def test_one_subparser_prints_the_same_help(command, capsys):
    helps = []
    for parser in (build_parser(command), build_parser()):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "-h"])
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    other = "render" if command == "count" else "count"
    with pytest.raises(CliError, match=f"invalid choice: '{other}'"):
        build_parser(command).parse_args([other])
