static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[3] = {-7, 2};
static int f0(int a, int b) {
    int r = a & (b | 3);
    if (r > 4)
        r = r * 3;
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a | (b - 1);
    mix((unsigned int)r);
    return r;
}
static int f2(int a, int b) {
    int r = a + (b + 2);
    if (r <= 3)
        r = r * 2;
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    v0 = v0 ^ f0(((v0 >> 0) << 1), v0);
    for (int i0 = 0; i0 < 3; i0++) {
        v0 = v0;
    }
    int a0[2] = {2, 2};
    mix((unsigned int)(((((6 / 3) >> 6) / 4) > (f0((-3 / 7), f1(-16, 20)) & -7))));
    v0 = ((((-20 > 19) - f2(-7, 6)) % 4) >> 4);
    int v1 = -4;
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
