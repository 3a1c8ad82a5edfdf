"""One key table per versioned record.

Each record written with an embedded schema version is declared once,
next to its writer, as a :class:`Record`.  Writers build rows with
:meth:`Record.row`, validators check them with :meth:`Record.check`,
and ``tests/golden/test_schema_pins.py`` pins the same tables, so a
key changes in one place, together with a version bump.
"""


class Record:
    """Name, version key, version and ordered top-level keys of a record.

    ``constants`` are fixed discriminators (a header's ``kind``) that
    are stamped and checked exactly like the version.
    """

    def __init__(self, name, version_key, version, keys, **constants):
        self.name = name
        self.version_key = version_key
        self.version = version
        self.keys = tuple(keys)
        self.constants = {version_key: version, **constants}

    def row(self, **values):
        """A row in table (write) order; a missing or extra key raises."""
        values.update(self.constants)
        if set(values) != set(self.keys):
            raise ValueError(f"{self.name}: keys {sorted(values)} != "
                             f"{sorted(self.keys)}")
        return {key: values[key] for key in self.keys}

    def check(self, row, where):
        """*row* if it has this version and every key, else ValueError."""
        if not isinstance(row, dict):
            raise ValueError(f"{where}: {self.name} is not an object")
        for key, expected in self.constants.items():
            if row.get(key) != expected:
                raise ValueError(f"{where}: {self.name} has {key}="
                                 f"{row.get(key)!r}, expected {expected!r}")
        missing = [key for key in self.keys if key not in row]
        if missing:
            raise ValueError(f"{where}: {self.name} missing {missing}")
        return row
