"""The help text of `maxca` and of each of its commands, built from
`cli`'s command table. Only `-h`/`--help` imports this module, so no
other command compiles it."""


def help_text(commands: dict, required: object, command: str | None) -> str:
    # commands is cli._COMMANDS, and an option whose default is required
    # must be given; command None asks for the top-level help.
    if command is None:
        usage, heading = "maxca [-h] <command> [options]", "commands:"
        line = "Run `maxca <command> -h` for its options."
        rows = [(name, text) for name, (_, text, _) in commands.items()]
    else:
        _, line, options = commands[command]
        usage, heading = f"maxca {command} [-h]", "options:"
        rows = [("-h, --help", "show this help and exit")]
        for name, (kind, default, text) in options.items():
            if kind is not bool:
                name += " {" + ",".join(kind) + "}" if isinstance(kind, tuple) else " " + name[2:].upper()
            usage += f" {name}" if default is required else f" [{name}]"
            rows.append((name, text))
    width = max(len(left) for left, _ in rows) + 2
    rows = [f"  {left:<{width}}{text}" for left, text in rows]
    return "\n".join([f"usage: {usage}", "", line, "", heading, *rows, ""])
