"""Analysis helpers: metric math, report formatting, the hardware cost
model of Section 7.3, and the simlint static analysis.
"""
