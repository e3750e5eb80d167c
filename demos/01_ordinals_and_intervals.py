"""Ordinal notation, arithmetic, and interval sets.

Run:  python3 demos/01_ordinals_and_intervals.py
"""

from stabforce import IntervalSet, NonCanonicalError, parse_ordinal as O

print("== parsing and printing ==")
for text in ["0", "w^2*3+w+4", "w*2+3", "w^3"]:
    a = O(text)
    print(f"  {text!r:14} -> terms {a.terms}  (round-trips to {str(a)!r})")

print("\nnon-canonical spellings are rejected, not normalized:")
for text in ["w+w", "w^1", "w*0"]:
    try:
        O(text)
    except NonCanonicalError as exc:
        print(f"  {text!r:6} -> {exc}")

print("\n== order and addition ==")
pairs = [("5", "w"), ("w*2+3", "w^2"), ("w^2", "w^2")]
for a, b in pairs:
    verdict = "<" if O(a) < O(b) else "=" if O(a) == O(b) else ">"
    print(f"  {a} {verdict} {b}")
print("  1 + w  =", O("1") + O("w"), "   (left addend absorbed)")
print("  w + 1  =", O("w") + O("1"))
print("  w+1 + w =", O("w+1") + O("w"))

print("\n== classification ==")
for text in ["w", "w^2", "w*2+3"]:
    a = O(text)
    print(f"  {text:7} -> {a.classify():9} lim2={a.is_lim2}")

print("\n== interval sets ==")
s = IntervalSet.of((O("0"), O("6")))
print(f"  {s}: has_max={s.has_max()} max={s.max_element()}")
t = IntervalSet.of((O("0"), O("6")), (O("w*2+1"), O("w*3")))
print(f"  {t}: has_max={t.has_max()} sup={t.sup()} member(w)={t.member(O('w'))}")
print("  union:", s.union(t))
print("  intersect with [5, w*2+4):",
      t.intersect(IntervalSet.of((O("5"), O("w*2+4")))))
