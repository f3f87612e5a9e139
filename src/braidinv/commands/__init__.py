"""One module per subcommand; cli.main imports only the one that runs."""
