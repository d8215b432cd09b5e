"""Reference implementations that differential tests compare the library against."""
