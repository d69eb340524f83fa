"""Reference implementations the equivalence tests compare ``src/`` against."""
