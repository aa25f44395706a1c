"""The standing end-to-end benchmark (see ``bench/README.md``)."""
