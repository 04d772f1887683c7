"""End-to-end benchmark of the phpSAFE analyzer (see README.md)."""
