import csv


def write_csv(path, ds, sensitive_col: str = "S", label_col: str = "Y") -> None:
    """Write a labeled dataset to CSV; float cells use the shortest round-trip repr."""
    names = ds.feature_names or tuple(f"x{i + 1}" for i in range(ds.d))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*names, sensitive_col, label_col])
        for x, s, y in zip(ds.features, ds.sensitive, ds.labels):
            writer.writerow([*(repr(float(v)) for v in x), str(int(s)), str(int(y))])
