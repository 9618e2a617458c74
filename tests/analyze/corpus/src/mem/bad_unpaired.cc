// Seeded violation: no tests/mem/test_bad_unpaired.cc pairs this file.
// fdp-analyze-expect: test-pairing

int untested() { return 1; }
