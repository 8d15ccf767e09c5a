// Fixture: R7 exempts no tool — process control belongs to
// src/mapreduce/ and src/server/ alone, so a tool keeps the ban (violation
// on line 5).
int Escape() {
  int child = fork();
  return child;
}
